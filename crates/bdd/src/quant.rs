//! Quantification: `exists`, `forall`, and the fused relational product
//! `and_exists` every image computation runs on.

use crate::manager::Inner;
use crate::node::{Ref, VarId};

impl Inner {
    /// Existential quantification `∃ vars. f`.
    ///
    /// # Examples
    ///
    /// ```
    /// use covest_bdd::BddManager;
    /// let mgr = BddManager::new();
    /// let x = mgr.new_var();
    /// let y = mgr.new_var();
    /// let f = mgr.var(x).and(&mgr.var(y));
    /// assert_eq!(f.exists(&[x]), mgr.var(y));
    /// ```
    pub fn exists(&mut self, f: Ref, vars: &[VarId]) -> Ref {
        let mask = self.take_mask(vars);
        let tag = self.quant_cache.begin();
        let r = self.quant_rec(f, &mask, true, tag);
        self.mask_scratch = mask;
        r
    }

    /// Universal quantification `∀ vars. f`.
    pub fn forall(&mut self, f: Ref, vars: &[VarId]) -> Ref {
        let mask = self.take_mask(vars);
        let tag = self.quant_cache.begin();
        let r = self.quant_rec(f, &mask, false, tag);
        self.mask_scratch = mask;
        r
    }

    /// Fills and returns the manager-owned variable mask (moved out so the
    /// recursion can borrow `self` mutably); callers hand it back by
    /// storing it into `mask_scratch`, preserving its capacity for the
    /// next quantification instead of allocating per call.
    fn take_mask(&mut self, vars: &[VarId]) -> Vec<bool> {
        let mut mask = std::mem::take(&mut self.mask_scratch);
        mask.clear();
        mask.resize(self.num_vars(), false);
        for &v in vars {
            mask[v.index()] = true;
        }
        mask
    }

    /// `tag` scopes the cache entries to one top-level call: the mask
    /// differs between calls, so a fresh generation (not a wipe) keeps
    /// earlier calls' entries from matching.
    fn quant_rec(&mut self, f: Ref, mask: &[bool], existential: bool, tag: u64) -> Ref {
        if f.is_const() {
            return f;
        }
        if let Some(r) = self.quant_cache.lookup(tag, f) {
            self.stats.quant_hits += 1;
            return r;
        }
        self.stats.quant_misses += 1;
        let n = self.node(f);
        let lo = self.quant_rec(n.lo, mask, existential, tag);
        let hi = self.quant_rec(n.hi, mask, existential, tag);
        let r = if mask[n.var as usize] {
            if existential {
                self.or(lo, hi)
            } else {
                self.and(lo, hi)
            }
        } else {
            self.mk(n.var, lo, hi)
        };
        self.quant_cache.insert(tag, f, r);
        r
    }

    /// Fused relational product `∃ vars. (f ∧ g)`.
    ///
    /// Computing the conjunction and the quantification in one pass avoids
    /// building the (often much larger) intermediate `f ∧ g`; this is the
    /// workhorse of symbolic image/preimage computation.
    pub fn and_exists(&mut self, f: Ref, g: Ref, vars: &[VarId]) -> Ref {
        let mask = self.take_mask(vars);
        let tag = self.pair_cache.begin();
        let r = self.and_exists_rec(f, g, &mask, tag);
        self.mask_scratch = mask;
        r
    }

    fn and_exists_rec(&mut self, f: Ref, g: Ref, mask: &[bool], tag: u64) -> Ref {
        if f.is_false() || g.is_false() {
            return Ref::FALSE;
        }
        if f.is_true() && g.is_true() {
            return Ref::TRUE;
        }
        // Normalize operand order: ∧ is commutative.
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.pair_cache.lookup(tag, f, g) {
            self.stats.pair_hits += 1;
            return r;
        }
        self.stats.pair_misses += 1;
        let top = self.level(f).min(self.level(g));
        let var = self.var_at_level(top);
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let r = if mask[var.index()] {
            let lo = self.and_exists_rec(f0, g0, mask, tag);
            if lo.is_true() {
                // Early termination: ∨ with true.
                self.pair_cache.insert(tag, f, g, Ref::TRUE);
                return Ref::TRUE;
            }
            let hi = self.and_exists_rec(f1, g1, mask, tag);
            self.or(lo, hi)
        } else {
            let lo = self.and_exists_rec(f0, g0, mask, tag);
            let hi = self.and_exists_rec(f1, g1, mask, tag);
            self.mk(var.0, lo, hi)
        };
        self.pair_cache.insert(tag, f, g, r);
        r
    }

    /// Shannon cofactor by a literal: `f` with `var` fixed to `value`.
    pub fn cofactor(&mut self, f: Ref, var: VarId, value: bool) -> Ref {
        let tag = self.quant_cache.begin();
        self.cofactor_rec(f, var, value, tag)
    }

    fn cofactor_rec(&mut self, f: Ref, var: VarId, value: bool, tag: u64) -> Ref {
        if f.is_const() {
            return f;
        }
        let flevel = self.level(f);
        let vlevel = self.level_of(var);
        if flevel > vlevel {
            return f; // var cannot appear below its level
        }
        if let Some(r) = self.quant_cache.lookup(tag, f) {
            self.stats.quant_hits += 1;
            return r;
        }
        self.stats.quant_misses += 1;
        let n = self.node(f);
        let r = if n.var == var.0 {
            if value {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.cofactor_rec(n.lo, var, value, tag);
            let hi = self.cofactor_rec(n.hi, var, value, tag);
            self.mk(n.var, lo, hi)
        };
        self.quant_cache.insert(tag, f, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exists_removes_var_from_support() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let f = b.xor(fx, fy);
        let ex = b.exists(f, &[x]);
        assert!(ex.is_true()); // for any y some x makes x^y true
        let fa = b.forall(f, &[x]);
        assert!(fa.is_false());
    }

    #[test]
    fn exists_forall_duality() {
        let mut b = Inner::new();
        let vars = b.new_vars(4);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let c0 = b.and(lits[0], lits[1]);
        let c1 = b.xor(lits[2], lits[3]);
        let f = b.or(c0, c1);
        // ∃x.f == ¬∀x.¬f
        let ex = b.exists(f, &[vars[1], vars[2]]);
        let nf = b.not(f);
        let fa = b.forall(nf, &[vars[1], vars[2]]);
        let nfa = b.not(fa);
        assert_eq!(ex, nfa);
    }

    #[test]
    fn and_exists_matches_two_step() {
        let mut b = Inner::new();
        let vars = b.new_vars(6);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let t0 = b.iff(lits[0], lits[3]);
        let t1 = b.iff(lits[1], lits[4]);
        let part = b.and(t0, t1);
        let t2 = b.xor(lits[2], lits[5]);
        let f = b.and(part, t2);
        let g = b.and(lits[0], lits[2]);
        let quantified = [vars[0], vars[1], vars[2]];
        let fused = b.and_exists(f, g, &quantified);
        let conj = b.and(f, g);
        let two_step = b.exists(conj, &quantified);
        assert_eq!(fused, two_step);
    }

    #[test]
    fn cofactor_is_shannon_cofactor() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let f = b.ite(fx, fy, Ref::FALSE);
        assert_eq!(b.cofactor(f, x, true), fy);
        assert_eq!(b.cofactor(f, x, false), Ref::FALSE);
    }

    #[test]
    fn quantifying_absent_var_is_identity() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let fx = b.var(x);
        let ex = b.exists(fx, &[y]);
        assert_eq!(ex, fx);
    }
}
