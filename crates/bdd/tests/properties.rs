//! Property-based tests for the ROBDD engine: canonicity, Boolean-algebra
//! laws, quantifier dualities, and counting consistency against a
//! truth-table oracle on small variable universes.

use std::collections::{BTreeSet, HashMap};

use covest_bdd::{BddManager, Func, VarId};
use proptest::prelude::*;

const NVARS: usize = 5;

/// A tiny expression language used to generate random Boolean functions.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0..NVARS).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn build(mgr: &BddManager, vars: &[VarId], e: &Expr) -> Func {
    match e {
        Expr::Const(c) => mgr.constant(*c),
        Expr::Var(i) => mgr.var(vars[*i]),
        Expr::Not(a) => build(mgr, vars, a).not(),
        Expr::And(a, b) => build(mgr, vars, a).and(&build(mgr, vars, b)),
        Expr::Or(a, b) => build(mgr, vars, a).or(&build(mgr, vars, b)),
        Expr::Xor(a, b) => build(mgr, vars, a).xor(&build(mgr, vars, b)),
        Expr::Ite(a, b, c) => build(mgr, vars, a).ite(&build(mgr, vars, b), &build(mgr, vars, c)),
    }
}

fn eval_expr(e: &Expr, assignment: &[bool]) -> bool {
    match e {
        Expr::Const(c) => *c,
        Expr::Var(i) => assignment[*i],
        Expr::Not(a) => !eval_expr(a, assignment),
        Expr::And(a, b) => eval_expr(a, assignment) && eval_expr(b, assignment),
        Expr::Or(a, b) => eval_expr(a, assignment) || eval_expr(b, assignment),
        Expr::Xor(a, b) => eval_expr(a, assignment) ^ eval_expr(b, assignment),
        Expr::Ite(a, b, c) => {
            if eval_expr(a, assignment) {
                eval_expr(b, assignment)
            } else {
                eval_expr(c, assignment)
            }
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NVARS)).map(|bits| (0..NVARS).map(|i| bits & (1 << i) != 0).collect())
}

/// The number of distinct decision nodes of `f` and its variables, by a
/// walk that keeps the visited handles in a list.
fn reference_walk(f: &Func) -> (usize, Vec<VarId>) {
    let mut seen: Vec<Func> = Vec::new();
    let mut vars = BTreeSet::new();
    let mut stack = vec![f.clone()];
    while let Some(g) = stack.pop() {
        if g.is_const() || seen.contains(&g) {
            continue;
        }
        vars.insert(g.root_var());
        let (lo, hi) = g.children();
        stack.push(lo);
        stack.push(hi);
        seen.push(g);
    }
    (seen.len(), vars.into_iter().collect())
}

proptest! {
    /// The BDD agrees with direct expression evaluation on every input.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        for a in assignments() {
            let expect = eval_expr(&e, &a);
            let got = f.eval(&|v| a[v.index()]);
            prop_assert_eq!(expect, got, "assignment {:?}", a);
        }
    }

    /// Canonicity: semantically equal functions get equal handles.
    #[test]
    fn canonicity(e1 in arb_expr(), e2 in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f1 = build(&mgr, &vars, &e1);
        let f2 = build(&mgr, &vars, &e2);
        let semantically_equal = assignments()
            .all(|a| eval_expr(&e1, &a) == eval_expr(&e2, &a));
        prop_assert_eq!(semantically_equal, f1 == f2);
    }

    /// Exact model count matches the truth-table count.
    #[test]
    fn sat_count_matches_truth_table(e in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        let expect = assignments().filter(|a| eval_expr(&e, a)).count() as u128;
        prop_assert_eq!(f.sat_count_exact(&vars), expect);
        let float = f.sat_count_over(&vars);
        prop_assert!((float - expect as f64).abs() < 1e-9);
    }

    /// Minterm enumeration yields exactly the satisfying assignments.
    #[test]
    fn minterms_match_truth_table(e in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        let mut got: Vec<Vec<bool>> = f
            .minterms_over(&vars)
            .map(|m| {
                let lookup: HashMap<VarId, bool> = m.into_iter().collect();
                vars.iter().map(|v| lookup[v]).collect()
            })
            .collect();
        got.sort();
        got.dedup();
        let mut expect: Vec<Vec<bool>> =
            assignments().filter(|a| eval_expr(&e, a)).collect();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// ∃x.f is the disjunction of cofactors; ∀x.f the conjunction.
    #[test]
    fn quantification_is_cofactor_combination(e in arb_expr(), idx in 0..NVARS) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        let v = vars[idx];
        let f0 = f.cofactor(v, false);
        let f1 = f.cofactor(v, true);
        prop_assert_eq!(f.exists(&[v]), f0.or(&f1));
        prop_assert_eq!(f.forall(&[v]), f0.and(&f1));
    }

    /// Fused and_exists equals conjunction followed by quantification.
    #[test]
    fn and_exists_equals_two_step(e1 in arb_expr(), e2 in arb_expr(), mask in 0u32..(1 << NVARS)) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e1);
        let g = build(&mgr, &vars, &e2);
        let qs: Vec<VarId> = vars
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &v)| v)
            .collect();
        let fused = f.and_exists(&g, &qs);
        let two_step = f.and(&g).exists(&qs);
        prop_assert_eq!(fused, two_step);
    }

    /// Renaming to fresh variables then back is the identity.
    #[test]
    fn rename_roundtrip(e in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let fresh = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        let forward: Vec<(VarId, VarId)> =
            vars.iter().copied().zip(fresh.iter().copied()).collect();
        let backward: Vec<(VarId, VarId)> =
            fresh.iter().copied().zip(vars.iter().copied()).collect();
        let back = f.rename(&forward).rename(&backward);
        prop_assert_eq!(back, f);
    }

    /// GC (rootless: live handles pin themselves) preserves the function
    /// and rebuilding anything still produces canonical results.
    #[test]
    fn gc_preserves_live_handles(e in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        mgr.gc();
        let f2 = build(&mgr, &vars, &e);
        prop_assert_eq!(&f2, &f);
        for a in assignments().take(8) {
            prop_assert_eq!(f.eval(&|v| a[v.index()]), eval_expr(&e, &a));
        }
    }

    /// Node counts and supports, which mark visited nodes in a bitmap,
    /// agree with a walk over handles; `g` shares nodes with `f`, and a
    /// walk stays within its own function.
    #[test]
    fn mark_pass_counts_match_a_set_based_walk(e1 in arb_expr(), e2 in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e1);
        let g = build(&mgr, &vars, &e2).xor(&f);
        for h in [&f, &g] {
            let (count, support) = reference_walk(h);
            prop_assert_eq!(h.node_count(), count);
            prop_assert_eq!(h.support(), support);
        }
        mgr.gc();
        prop_assert_eq!(f.node_count(), reference_walk(&f).0);
    }
}
