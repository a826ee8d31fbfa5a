//! Don't-care simplification: the Coudert–Madre `restrict` operator.
//!
//! `restrict` *simplifies `f` modulo a care set `c`*: the result agrees
//! with `f` everywhere `c` holds and is unconstrained elsewhere, so the
//! identity
//!
//! ```text
//! restrict(f, c) ∧ c  ≡  f ∧ c
//! ```
//!
//! holds. That freedom is what makes unreachable states (or any other
//! don't-care region) free to exploit: a fixpoint iterate or a BFS
//! frontier can be replaced by its simplified form wherever downstream
//! consumers only observe the result inside the care region.
//!
//! [`Inner::restrict`] is the sibling-substitution variant of the
//! generalized cofactor: when the care set's top variable sits above
//! `f`'s it is existentially quantified out of `c` instead of being
//! branched on, so the support of the result stays within `f`'s support.
//! On top of that, the implementation is *size-safe* the way CUDD's
//! `Cudd_bddRestrict` is: if the recursion still produced a bigger BDD
//! than `f`, plain `f` is returned — `restrict` never grows anything.
//!
//! Results are memoized in a manager-owned direct-mapped cache keyed by
//! `(f, c)` that persists across calls — a reachability care set is
//! applied to every fixpoint iterate, so hits across top-level calls are
//! the common case. Being fixed-size and lossy, the cache also bounds
//! its own growth: call sites like the frontier-simplified BFS key
//! entries by a care set that changes every iteration, and those
//! one-shot entries simply age out by overwrite. The operation depends
//! on the variable order, and the cached `Ref`s dangle once slots are
//! recycled, so the cache is dropped by [`Inner::clear_caches`] — i.e.
//! on every gc, reordering, and explicit cache clear (the same contract
//! as the quantification caches).

use crate::manager::Inner;
use crate::node::Ref;

impl Inner {
    /// Coudert–Madre `restrict` (sibling substitution), size-safe:
    /// simplifies `f` modulo the care set `c` without ever leaving `f`'s
    /// support or growing the BDD.
    ///
    /// Satisfies `restrict(f, c) ∧ c = f ∧ c`, `restrict(f, true) = f`,
    /// `support(restrict(f, c)) ⊆ support(f)`, and
    /// `node_count(restrict(f, c)) ≤ node_count(f)` (if the recursion
    /// produces something bigger, `f` itself is returned). An empty care
    /// set carries no information; `restrict(f, false) = f`.
    pub fn restrict(&mut self, f: Ref, c: Ref) -> Ref {
        if c.is_const() || f.is_const() {
            return f;
        }
        let r = self.restrict_rec(f, c);
        if r == f {
            return f;
        }
        // The size guard that makes restrict safe to sprinkle anywhere:
        // never hand back a bigger BDD than the input.
        if self.node_count(r) > self.node_count(f) {
            // Overwrite the cache with the guarded answer — `f` is itself
            // a valid restriction (it agrees with `f` on `c`, trivially,
            // within `f`'s support and size), and the `r == f` fast path
            // above then makes repeated calls O(1) instead of paying the
            // two node-count traversals again.
            self.restrict_cache.insert(f, c, f);
            f
        } else {
            r
        }
    }

    fn restrict_rec(&mut self, f: Ref, c: Ref) -> Ref {
        if c.is_true() || f.is_const() {
            return f;
        }
        if f == c {
            return Ref::TRUE;
        }
        if let Some(r) = self.restrict_cache.lookup(f, c) {
            self.stats.restrict_hits += 1;
            return r;
        }
        self.stats.restrict_misses += 1;
        let flevel = self.level(f);
        let clevel = self.level(c);
        let r = if clevel < flevel {
            // c branches on a variable f never mentions: drop it from the
            // care set (∃var. c) instead of branching — this is what keeps
            // the result's support inside f's.
            let (c0, c1) = self.children(c);
            let cq = self.or(c0, c1);
            self.restrict_rec(f, cq)
        } else {
            let var = self.node(f).var;
            let (f0, f1) = self.cofactors_at(f, flevel);
            let (c0, c1) = self.cofactors_at(c, flevel);
            if c0.is_false() {
                // var=0 is entirely don't-care: substitute the sibling.
                self.restrict_rec(f1, c1)
            } else if c1.is_false() {
                self.restrict_rec(f0, c0)
            } else {
                let lo = self.restrict_rec(f0, c0);
                let hi = self.restrict_rec(f1, c1);
                self.mk(var, lo, hi)
            }
        };
        self.restrict_cache.insert(f, c, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::VarId;

    fn eval_all(b: &Inner, f: Ref, nvars: usize) -> Vec<bool> {
        (0..1u32 << nvars)
            .map(|bits| b.eval(f, &|v: VarId| bits >> v.index() & 1 == 1))
            .collect()
    }

    /// A small fixture: f = (x0 ∧ x1) ∨ x2, c = x0 ⊕ x2.
    fn fixture() -> (Inner, Vec<VarId>, Ref, Ref) {
        let mut b = Inner::new();
        let vars = b.new_vars(3);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let conj = b.and(lits[0], lits[1]);
        let f = b.or(conj, lits[2]);
        let c = b.xor(lits[0], lits[2]);
        (b, vars, f, c)
    }

    #[test]
    fn restrict_agrees_on_care_set() {
        let (mut b, _, f, c) = fixture();
        let g = b.restrict(f, c);
        let gc = b.and(g, c);
        let fc = b.and(f, c);
        assert_eq!(gc, fc);
    }

    #[test]
    fn trivial_care_sets() {
        let (mut b, _, f, _) = fixture();
        assert_eq!(b.restrict(f, Ref::TRUE), f);
        assert_eq!(b.restrict(f, Ref::FALSE), f);
        assert_eq!(b.restrict(Ref::TRUE, Ref::FALSE), Ref::TRUE);
    }

    #[test]
    fn restrict_stays_in_support_and_never_grows() {
        let (mut b, vars, f, _) = fixture();
        // A care set dragging in an extra variable x3.
        let x3 = b.new_var();
        let l3 = b.var(x3);
        let nf2 = b.nvar(vars[2]);
        let c = b.and(l3, nf2);
        let g = b.restrict(f, c);
        let sup = b.support(g);
        assert!(
            sup.iter().all(|v| b.support(f).contains(v)),
            "restrict leaked care-set variables into the support"
        );
        assert!(b.node_count(g) <= b.node_count(f));
        // The identity still holds.
        let gc = b.and(g, c);
        let fc = b.and(f, c);
        assert_eq!(gc, fc);
    }

    #[test]
    fn memo_caches_persist_across_calls_and_clear() {
        let (mut b, _, f, c) = fixture();
        let r1 = b.restrict(f, c);
        assert!(b.restrict_cache.occupied() > 0);
        let misses = b.stats.restrict_misses;
        // Hits across top-level calls return identical results without
        // recomputation (the cross-call miss counter stands still).
        assert_eq!(b.restrict(f, c), r1);
        assert_eq!(b.stats.restrict_misses, misses);
        b.clear_caches();
        assert_eq!(b.restrict_cache.occupied(), 0);
        // Recomputation from a cold cache agrees.
        assert_eq!(b.restrict(f, c), r1);
    }

    #[test]
    fn simplified_functions_match_oracle_on_care_points() {
        let (mut b, _, f, c) = fixture();
        let truth_f = eval_all(&b, f, 3);
        let truth_c = eval_all(&b, c, 3);
        let r = b.restrict(f, c);
        for (i, (&tf, &tc)) in truth_f.iter().zip(&truth_c).enumerate() {
            if !tc {
                continue;
            }
            let bits = i as u32;
            let assign = |v: VarId| bits >> v.index() & 1 == 1;
            assert_eq!(b.eval(r, &assign), tf, "restrict differs at {bits:03b}");
        }
    }
}
