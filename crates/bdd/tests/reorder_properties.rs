//! Property-based tests for dynamic reordering: `reduce_heap` must
//! preserve semantics (evaluation, canonicity, satisfying-assignment
//! counts), never separate grouped variable pairs, and interoperate with
//! garbage collection — all through the rootless RAII API, where the live
//! set is exactly the `Func` handles still in scope.

use std::collections::HashMap;

use covest_bdd::{BddManager, Func, VarId};
use proptest::prelude::*;

const NVARS: usize = 6;

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
    leaf.prop_recursive(5, 64, 2, |inner| {
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
    (0..(1u32 << NVARS))
        .map(|bits| f.eval(&|v| bits >> v.index() & 1 == 1))
        .collect()
}

proptest! {
    /// Sifting changes only the shape: evaluation, exact counts and the
    /// float count all stay identical for every live handle.
    #[test]
    fn reduce_heap_preserves_semantics(e1 in arb_expr(), e2 in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f1 = build(&mgr, &vars, &e1);
        let f2 = build(&mgr, &vars, &e2);
        let tt1 = truth_table(&f1);
        let tt2 = truth_table(&f2);
        let count1 = f1.sat_count_exact(&vars);
        let count2 = f2.sat_count_exact(&vars);
        let float1 = f1.sat_count_over(&vars);

        let stats = mgr.reduce_heap();
        prop_assert!(stats.after <= stats.before);

        prop_assert_eq!(truth_table(&f1), tt1);
        prop_assert_eq!(truth_table(&f2), tt2);
        prop_assert_eq!(f1.sat_count_exact(&vars), count1);
        prop_assert_eq!(f2.sat_count_exact(&vars), count2);
        // Counting is a sum of dyadic rationals, so it is not just close
        // but bit-identical under any order.
        prop_assert_eq!(f1.sat_count_over(&vars).to_bits(), float1.to_bits());
    }

    /// Canonicity survives reordering: rebuilding a function after a sift
    /// yields an equal handle.
    #[test]
    fn canonicity_after_reorder(e in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        mgr.reduce_heap();
        let again = build(&mgr, &vars, &e);
        prop_assert_eq!(f, again);
    }

    /// `reduce_heap` collects like gc: dropped garbage is reclaimed while
    /// live handles survive with identical semantics; with no live handle
    /// at all, the call is a no-op.
    #[test]
    fn reduce_heap_collects_dropped_garbage(e1 in arb_expr(), e2 in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let rooted = build(&mgr, &vars, &e1);
        let tt = truth_table(&rooted);
        let live_with_garbage = {
            let _garbage = build(&mgr, &vars, &e2);
            mgr.live_nodes()
        };
        mgr.reduce_heap();
        prop_assert!(mgr.live_nodes() <= live_with_garbage);
        prop_assert_eq!(truth_table(&rooted), tt.clone());

        // With no handle in scope, sifting has no live set: no-op.
        let mgr2 = BddManager::new();
        let vars2 = mgr2.new_vars(NVARS);
        {
            let _f1 = build(&mgr2, &vars2, &e1);
        }
        let order_before = mgr2.current_order();
        mgr2.reduce_heap();
        prop_assert_eq!(mgr2.current_order(), order_before);

        // Handles in scope are the live set — no registration needed.
        let f1 = build(&mgr2, &vars2, &e1);
        let f2 = build(&mgr2, &vars2, &e2);
        let tt2 = truth_table(&f2);
        mgr2.reduce_heap();
        prop_assert_eq!(truth_table(&f1), tt);
        prop_assert_eq!(truth_table(&f2), tt2);
    }

    /// Quantification and substitution agree with a pre-reorder oracle
    /// after sifting (the memo layers must not leak stale entries).
    #[test]
    fn operations_after_reorder_match_oracle(e in arb_expr(), idx in 0..NVARS) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        let v = vars[idx];
        let ex_before = f.exists(&[v]);
        let tt = truth_table(&ex_before);
        mgr.reduce_heap();
        let ex_after = f.exists(&[v]);
        prop_assert_eq!(&ex_before, &ex_after);
        prop_assert_eq!(truth_table(&ex_after), tt);
    }

    /// Grouped pairs are never separated, whatever the function demands.
    #[test]
    fn grouped_pairs_stay_adjacent(e in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        for pair in vars.chunks(2) {
            mgr.group_vars(pair);
        }
        let _f = build(&mgr, &vars, &e);
        mgr.reduce_heap();
        for pair in vars.chunks(2) {
            prop_assert_eq!(
                mgr.level_of(pair[1]),
                mgr.level_of(pair[0]) + 1,
                "pair {:?} separated", pair
            );
            prop_assert_eq!(mgr.group_of(pair[0]), Some(pair.to_vec()));
        }
    }

    /// GC after reorder reclaims the sift garbage without disturbing live
    /// handles; reorder after GC works on the compacted table.
    #[test]
    fn gc_and_reorder_interleave(e1 in arb_expr(), e2 in arb_expr()) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let keep = build(&mgr, &vars, &e1);
        let tt = truth_table(&keep);
        {
            let _garbage = build(&mgr, &vars, &e2);
        }

        mgr.reduce_heap();
        let freed = mgr.gc();
        let live_after_gc = mgr.live_nodes();
        prop_assert_eq!(truth_table(&keep), tt.clone());

        let stats = mgr.reduce_heap();
        prop_assert_eq!(stats.before + 2, live_after_gc,
            "after gc, the live table is exactly the rooted set plus terminals");
        mgr.gc();
        prop_assert_eq!(truth_table(&keep), tt);
        let _ = freed;
    }
}

proptest! {
    /// `pick_minterm` is the smallest minterm in the order of the `vars`
    /// it is given, false before true: the minimum of `minterms_over`,
    /// whatever that order, the level order and any sift in between.
    #[test]
    fn pick_minterm_is_the_smallest_minterm(
        e in arb_expr(),
        rotation in 0..NVARS,
        reversed in any::<bool>(),
        sift in any::<bool>(),
    ) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        let f = build(&mgr, &vars, &e);
        let mut order: Vec<VarId> = (0..NVARS).map(|i| vars[(i + rotation) % NVARS]).collect();
        if reversed {
            order.reverse();
        }
        mgr.set_order(&order);
        if sift {
            mgr.reduce_heap();
        }
        let values = |m: &[(VarId, bool)]| m.iter().map(|&(_, b)| b).collect::<Vec<bool>>();
        for universe in [vars.clone(), order.clone()] {
            let smallest = f.minterms_over(&universe).min_by_key(|m| values(m));
            prop_assert_eq!(f.pick_minterm(&universe), smallest);
        }
    }
}

#[test]
fn sat_counts_are_bit_identical_across_random_orders() {
    // Deterministic spot-check on a function with an irregular count.
    let mgr = BddManager::new();
    let vars = mgr.new_vars(NVARS);
    let mut f = mgr.constant(false);
    for i in 0..NVARS {
        let a = mgr.var(vars[i]);
        let b = mgr.var(vars[(i * 2 + 1) % NVARS]);
        f = f.or(&a.and(&b));
    }
    let count = f.sat_count_over(&vars);
    for rotation in 1..NVARS {
        let order: Vec<VarId> = (0..NVARS).map(|i| vars[(i + rotation) % NVARS]).collect();
        mgr.set_order(&order);
        assert_eq!(mgr.current_order(), order);
        assert_eq!(f.sat_count_over(&vars).to_bits(), count.to_bits());
    }
}

/// `MAX_STALE_MOVES` in `src/reorder.rs`: a sift direction ends after this
/// many moves into new positions that do not beat the block's best size.
const STALE_MOVES: usize = 4;

#[test]
fn plateau_sifting_is_bounded_per_variable() {
    // A cube has one node per variable in every order, and so does its
    // complement, so every move of every variable is a plateau. Each
    // variable then explores at most STALE_MOVES positions per direction
    // and retraces each of them once: 4 * STALE_MOVES swaps. The
    // unbounded pass sends every variable to both ends: 64 * 126 swaps.
    const N: usize = 64;
    let mgr = BddManager::new();
    let vars = mgr.new_vars(N);
    let polarity = |i: usize| i % 3 != 1;
    let mut cube = mgr.constant(true);
    for (i, &v) in vars.iter().enumerate() {
        let lit = mgr.var(v);
        cube = cube.and(&if polarity(i) { lit } else { lit.not() });
    }
    let complement = cube.not();
    let witness = |v: VarId| polarity(v.index());

    let stats = mgr.reduce_heap();
    assert_eq!((stats.before, stats.after), (2 * N, 2 * N));
    assert!(
        stats.swaps <= 4 * STALE_MOVES * N,
        "{} swaps on a plateau of {N} variables",
        stats.swaps
    );
    // One satisfying assignment plus its witness pins the cube's whole
    // truth table, and all but that one pins the complement's.
    assert_eq!(cube.sat_count_exact(&vars), 1);
    assert!(cube.eval(&witness));
    assert_eq!(complement.sat_count_exact(&vars), (1u128 << N) - 1);
    assert!(!complement.eval(&witness));
}

#[test]
fn minterm_enumeration_consistent_after_reorder() {
    let mgr = BddManager::new();
    let vars = mgr.new_vars(NVARS);
    let f = {
        let c = mgr.var(vars[0]).xor(&mgr.var(vars[3]));
        c.or(&mgr.var(vars[5]))
    };
    let collect = |f: &Func| -> Vec<Vec<(VarId, bool)>> {
        let mut v: Vec<_> = f.minterms_over(&vars).collect();
        v.sort();
        v
    };
    let before = collect(&f);
    mgr.reduce_heap();
    assert_eq!(collect(&f), before);
    let lookups: Vec<HashMap<VarId, bool>> =
        before.iter().map(|m| m.iter().copied().collect()).collect();
    for lookup in &lookups {
        assert!(f.eval(&|v| lookup[&v]));
    }
}
