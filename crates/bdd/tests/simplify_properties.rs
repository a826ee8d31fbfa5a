//! Property-based tests for the Coudert–Madre `restrict` operator.
//!
//! The contract under test is the *simplification identity*
//! `restrict(f, c) ∧ c ≡ f ∧ c`, plus the structural guarantees
//! (`restrict` never grows a BDD, never leaves `f`'s support, and
//! `restrict(f, true) = f`). Every law is also exercised across forced
//! mid-sequence `gc()` and `reduce_heap()` calls: the operator is
//! memoized in a manager-owned table keyed by raw node indices *and* is
//! sensitive to the variable order, so a memo entry surviving a
//! collection or a sift would be exactly the stale-cache bug class once
//! fixed for quantification.

use std::collections::HashSet;

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
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0..NVARS).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(4, 40, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
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
    }
}

fn truth_table(f: &Func) -> Vec<bool> {
    (0..1u32 << NVARS)
        .map(|bits| f.eval(&|v| bits >> v.index() & 1 == 1))
        .collect()
}

/// Checks the simplification identity plus the structural guarantees,
/// returning `restrict(f, c)` for reuse. (The vendored proptest's
/// assertion macros early-return `Err(String)`, hence the error type.)
fn assert_laws(mgr: &BddManager, f: &Func, c: &Func) -> Result<Func, String> {
    let fc = f.and(c);
    let res = f.restrict(c);
    prop_assert_eq!(&res.and(c), &fc, "restrict identity violated");
    // restrict by the trivial care set is the identity.
    prop_assert_eq!(&f.restrict(&mgr.constant(true)), f);
    // restrict is size-safe and support-safe.
    prop_assert!(
        res.node_count() <= f.node_count(),
        "restrict grew the BDD: {} -> {}",
        f.node_count(),
        res.node_count()
    );
    let fsup: HashSet<VarId> = f.support().into_iter().collect();
    prop_assert!(
        res.support().iter().all(|v| fsup.contains(v)),
        "restrict left f's support: {:?} ⊄ {:?}",
        res.support(),
        f.support()
    );
    Ok(res)
}

proptest! {
    /// The cofactor identity, straight.
    #[test]
    fn simplification_identities(fe in arb_expr(), ce in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &fe);
        let c = build(&mgr, &vars, &ce);
        assert_laws(&mgr, &f, &c)?;
    }

    /// `restrict` agrees with `f` pointwise on every care point.
    #[test]
    fn simplified_functions_match_f_on_care_points(fe in arb_expr(), ce in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &fe);
        let c = build(&mgr, &vars, &ce);
        let res = assert_laws(&mgr, &f, &c)?;
        for bits in 0..1u32 << NVARS {
            let assign = |v: VarId| bits >> v.index() & 1 == 1;
            if !c.eval(&assign) {
                continue;
            }
            prop_assert_eq!(f.eval(&assign), res.eval(&assign), "restrict at {:05b}", bits);
        }
    }

    /// The PR-3 bug class: memoized results must not survive collections
    /// or reorderings. The laws are checked, a gc and a sift are forced
    /// (recycling slots and changing the variable order — which changes
    /// what restrict should even compute), then checked again
    /// on the surviving handles, then once more after another collection
    /// round-trip with extra garbage thrown in.
    #[test]
    fn laws_hold_across_forced_gc_and_reorder(fe in arb_expr(), ce in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &fe);
        let c = build(&mgr, &vars, &ce);
        let truth_f = truth_table(&f);

        // Round 1: populate the memo table.
        let res1 = assert_laws(&mgr, &f, &c)?;
        let truth_res1 = truth_table(&res1);
        drop(res1); // its nodes become garbage

        // Collection recycles slots; a stale memo entry would now dangle.
        mgr.gc();
        let res2 = assert_laws(&mgr, &f, &c)?;
        // Same manager state, same order: the recomputed restrict must
        // agree with the pre-gc one semantically.
        prop_assert_eq!(&truth_table(&res2), &truth_res1);

        // Sifting changes the variable order (and collects): results may
        // legitimately differ now, but the laws must still hold and the
        // input handles must still denote the same functions.
        mgr.reduce_heap();
        prop_assert_eq!(&truth_table(&f), &truth_f, "handle broken by reorder");
        assert_laws(&mgr, &f, &c)?;

        // One more round with fresh garbage between the calls.
        let junk = f.xor(&c).or(&f.not());
        drop(junk);
        mgr.gc();
        assert_laws(&mgr, &f, &c)?;
    }
}
