//! Differential validation of the symbolic model checker against an
//! explicit-state CTL evaluator on random graphs: for every state and
//! every random formula, the symbolic satisfaction set must agree with
//! direct fixpoint evaluation over the explicit transition lists.

use std::collections::HashSet;

use covest_bdd::BddManager;
use covest_ctl::{parse_ctl, Ctl, PropExpr};
use covest_fsm::Stg;
use covest_mc::ModelChecker;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Whether state `s`'s labels satisfy the propositional formula `p`.
fn holds_in(p: &PropExpr, s: usize, labels: &dyn Fn(&str, usize) -> bool) -> bool {
    let at = |q: &PropExpr| holds_in(q, s, labels);
    match p {
        PropExpr::Const(c) => *c,
        PropExpr::Atom(sig) => labels(&sig.name, s),
        PropExpr::Cmp { .. } => unreachable!("no comparisons in these tests"),
        PropExpr::Not(a) => !at(a),
        PropExpr::And(a, b) => at(a) && at(b),
        PropExpr::Or(a, b) => at(a) || at(b),
        PropExpr::Implies(a, b) => !at(a) || at(b),
        PropExpr::Iff(a, b) => at(a) == at(b),
    }
}

/// Explicit-state CTL evaluation: returns the set of states satisfying
/// the formula, given successor lists and per-state labels.
fn eval_explicit(
    ctl: &Ctl,
    succ: &[Vec<usize>],
    labels: &dyn Fn(&str, usize) -> bool,
) -> HashSet<usize> {
    let n = succ.len();
    let all: HashSet<usize> = (0..n).collect();
    match ctl {
        Ctl::Prop(p) => (0..n).filter(|&s| holds_in(p, s, labels)).collect(),
        Ctl::Not(a) => {
            let sa = eval_explicit(a, succ, labels);
            all.difference(&sa).copied().collect()
        }
        Ctl::And(a, b) => {
            let sa = eval_explicit(a, succ, labels);
            let sb = eval_explicit(b, succ, labels);
            sa.intersection(&sb).copied().collect()
        }
        Ctl::Or(a, b) => {
            let sa = eval_explicit(a, succ, labels);
            let sb = eval_explicit(b, succ, labels);
            sa.union(&sb).copied().collect()
        }
        Ctl::Implies(a, b) => {
            let na = Ctl::Not(a.clone());
            let or = Ctl::Or(Box::new(na), b.clone());
            eval_explicit(&or, succ, labels)
        }
        Ctl::Ex(a) => {
            let sa = eval_explicit(a, succ, labels);
            (0..n)
                .filter(|&s| succ[s].iter().any(|t| sa.contains(t)))
                .collect()
        }
        Ctl::Ax(a) => {
            let sa = eval_explicit(a, succ, labels);
            (0..n)
                .filter(|&s| succ[s].iter().all(|t| sa.contains(t)))
                .collect()
        }
        Ctl::Ef(a) => {
            // lfp: sa ∪ EX Z
            let sa = eval_explicit(a, succ, labels);
            lfp(succ, sa, |z, s| succ[s].iter().any(|t| z.contains(t)))
        }
        Ctl::Eu(a, b) => {
            let sa = eval_explicit(a, succ, labels);
            let sb = eval_explicit(b, succ, labels);
            lfp(succ, sb, |z, s| {
                sa.contains(&s) && succ[s].iter().any(|t| z.contains(t))
            })
        }
        Ctl::Af(a) => {
            // AF a = ¬EG ¬a
            let na = Ctl::Not(a.clone());
            let eg = Ctl::Eg(Box::new(na));
            let s = eval_explicit(&eg, succ, labels);
            all.difference(&s).copied().collect()
        }
        Ctl::Eg(a) => {
            // gfp: sa ∩ EX Z
            let sa = eval_explicit(a, succ, labels);
            gfp(succ, sa)
        }
        Ctl::Ag(a) => {
            // AG a = ¬EF ¬a
            let na = Ctl::Not(a.clone());
            let ef = Ctl::Ef(Box::new(na));
            let s = eval_explicit(&ef, succ, labels);
            all.difference(&s).copied().collect()
        }
        Ctl::Au(a, b) => {
            // A[a U b] = ¬(E[¬b U ¬a∧¬b] ∨ EG ¬b)
            let na = Ctl::Not(a.clone());
            let nb = Ctl::Not(b.clone());
            let conj = Ctl::And(Box::new(na), Box::new(nb.clone()));
            let eu = Ctl::Eu(Box::new(nb.clone()), Box::new(conj));
            let eg = Ctl::Eg(Box::new(nb));
            let bad = Ctl::Or(Box::new(eu), Box::new(eg));
            let s = eval_explicit(&bad, succ, labels);
            all.difference(&s).copied().collect()
        }
    }
}

/// Least fixpoint: start from `seed`, add states where `step` fires.
fn lfp(
    succ: &[Vec<usize>],
    seed: HashSet<usize>,
    step: impl Fn(&HashSet<usize>, usize) -> bool,
) -> HashSet<usize> {
    let mut z = seed;
    loop {
        let mut grew = false;
        for s in 0..succ.len() {
            if !z.contains(&s) && step(&z, s) {
                z.insert(s);
                grew = true;
            }
        }
        if !grew {
            return z;
        }
    }
}

/// Greatest fixpoint of `sa ∩ EX Z`.
fn gfp(succ: &[Vec<usize>], sa: HashSet<usize>) -> HashSet<usize> {
    let mut z = sa;
    loop {
        let next: HashSet<usize> = z
            .iter()
            .copied()
            .filter(|&s| succ[s].iter().any(|t| z.contains(t)))
            .collect();
        if next == z {
            return z;
        }
        z = next;
    }
}

fn random_stg(rng: &mut StdRng) -> (Stg, Vec<Vec<usize>>) {
    let n = rng.gen_range(2..=8);
    let mut stg = Stg::new("random");
    stg.add_states(n);
    for i in 0..n - 1 {
        stg.add_edge(i, i + 1);
    }
    for _ in 0..rng.gen_range(0..=2 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        stg.add_edge(a, b);
    }
    stg.mark_initial(0);
    for s in 0..n {
        if rng.gen_bool(0.5) {
            stg.label(s, "p");
        }
        if rng.gen_bool(0.5) {
            stg.label(s, "q");
        }
    }
    stg.label(rng.gen_range(0..n), "p");
    stg.label(rng.gen_range(0..n), "q");
    let succ: Vec<Vec<usize>> = (0..n).map(|s| stg.successors(s)).collect();
    (stg, succ)
}

fn random_formula_text(rng: &mut StdRng) -> String {
    let atoms = ["p", "q", "!p", "!q", "(p & q)", "(p | q)", "TRUE", "FALSE"];
    let mut a = || atoms[rng.gen_range(0..atoms.len())].to_owned();
    let templates: Vec<String> = vec![
        format!("EX {}", a()),
        format!("AX {}", a()),
        format!("EF {}", a()),
        format!("AF {}", a()),
        format!("EG {}", a()),
        format!("AG {}", a()),
        format!("E[{} U {}]", a(), a()),
        format!("A[{} U {}]", a(), a()),
        format!("AG ({} -> AX {})", a(), a()),
        format!("EF EG {}", a()),
        format!("AG EF {}", a()),
        format!("A[{} U E[{} U {}]]", a(), a(), a()),
        format!("!EF ({} & EX {})", a(), a()),
        format!("AF AG {}", a()),
    ];
    templates[rng.gen_range(0..templates.len())].clone()
}

#[test]
fn symbolic_sat_sets_match_explicit_evaluation() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..250 {
        let bdd = BddManager::new();
        let (stg, succ) = random_stg(&mut rng);
        let fsm = stg.compile(&bdd).expect("compiles");
        let text = random_formula_text(&mut rng);
        let ctl = parse_ctl(&text).expect("parses");
        let labels = |name: &str, s: usize| stg.labelled_states(name).contains(&s);
        let expect = eval_explicit(&ctl, &succ, &labels);
        let mut mc = ModelChecker::new(&fsm);
        let sat = mc.sat(&ctl).expect("sat");
        // Compare on the *valid* state codes only (invalid binary codes
        // self-loop and are unreachable; their satisfaction is irrelevant).
        let vars = fsm.current_vars();
        let mut got: HashSet<usize> = sat
            .minterms_over(&vars)
            .map(|m| stg.decode_state(&m, &fsm))
            .filter(|&s| s < stg.num_states())
            .collect();
        // Invalid-code self-loop states can appear in sat sets of
        // formulas like AG TRUE; restrict both sides to real states.
        got.retain(|&s| s < stg.num_states());
        assert_eq!(
            got,
            expect,
            "case {case}: formula `{text}` on a {}-state graph",
            stg.num_states()
        );
    }
}
