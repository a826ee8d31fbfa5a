//! Quantification: `exists`, `forall`, the fused relational product
//! `and_exists`, and the multi-operand, schedule-driven
//! conjoin-and-quantify used by partitioned image computation.

use crate::manager::Inner;
use crate::node::{Ref, VarId};

/// An early-quantification schedule for a fixed operand sequence
/// (Burch–Clarke–Long): each quantified variable is eliminated at the
/// *last* operand whose support contains it — i.e. the earliest point in
/// the left-to-right conjunction where its support ends.
///
/// Build once with [`crate::BddManager::quant_schedule`] and replay with
/// [`crate::BddManager::and_exists_schedule`]; the schedule depends only on the
/// operands' supports, so it stays valid across garbage collection and
/// dynamic reordering as long as the operand `Ref`s themselves do.
#[derive(Debug, Clone, Default)]
pub struct QuantSchedule {
    /// Variables appearing in no operand: quantified out of the seed
    /// before the first conjunction (identity unless the seed uses them).
    pub(crate) pre: Vec<VarId>,
    /// `at[i]`: variables whose last occurrence is operand `i`, eliminated
    /// while conjoining that operand.
    pub(crate) at: Vec<Vec<VarId>>,
}

impl QuantSchedule {
    /// Number of operands the schedule was built for.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// `true` if the schedule covers no operands.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }
}

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

    /// Builds the early-quantification schedule for eliminating `vars`
    /// from the conjunction of `operands` (in the given order): each
    /// variable is assigned to the last operand whose support contains it.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by in-crate tests
    pub fn quant_schedule(&self, operands: &[Ref], vars: &[VarId]) -> QuantSchedule {
        self.quant_schedule_many(operands, &[vars]).pop().unwrap()
    }

    /// Builds several schedules over the same operand sequence — one per
    /// variable list — computing each operand's support only once.
    pub fn quant_schedule_many(
        &self,
        operands: &[Ref],
        var_lists: &[&[VarId]],
    ) -> Vec<QuantSchedule> {
        // Each support is sorted by variable index.
        let supports: Vec<Vec<VarId>> = operands.iter().map(|&f| self.support(f)).collect();
        var_lists
            .iter()
            .map(|vars| {
                let mut pre = Vec::new();
                let mut at = vec![Vec::new(); operands.len()];
                for &v in *vars {
                    match (0..operands.len())
                        .rev()
                        .find(|&i| supports[i].binary_search(&v).is_ok())
                    {
                        Some(i) => at[i].push(v),
                        None => pre.push(v),
                    }
                }
                QuantSchedule { pre, at }
            })
            .collect()
    }

    /// Schedule-driven relational product `∃ vars. (seed ∧ ⋀ operands)`,
    /// where `schedule` was built by [`crate::BddManager::quant_schedule`] over the same
    /// `operands` and `vars`.
    ///
    /// The conjunction is folded left to right and each variable is
    /// quantified out at the operand where its support ends, so the
    /// intermediate products never carry variables that later operands no
    /// longer mention — the standard partitioned-transition-relation
    /// optimization. The `seed` (typically a state set) is conjoined
    /// before the first operand and may mention any of the variables.
    ///
    /// # Panics
    ///
    /// Panics if `schedule.len() != operands.len()`.
    pub fn and_exists_schedule(
        &mut self,
        seed: Ref,
        operands: &[Ref],
        schedule: &QuantSchedule,
    ) -> Ref {
        assert_eq!(
            schedule.len(),
            operands.len(),
            "schedule built for a different operand sequence"
        );
        let mut acc = seed;
        if !schedule.pre.is_empty() {
            acc = self.exists(acc, &schedule.pre);
        }
        for (&f, vars) in operands.iter().zip(&schedule.at) {
            acc = if vars.is_empty() {
                self.and(acc, f)
            } else {
                self.and_exists(acc, f, vars)
            };
            if acc.is_false() {
                return Ref::FALSE;
            }
        }
        acc
    }

    /// Multi-operand fused relational product `∃ vars. ⋀ operands`,
    /// eliminating each variable at the earliest operand where its
    /// support ends.
    ///
    /// Convenience wrapper building the schedule on the fly; callers with
    /// a fixed operand sequence (e.g. a clustered transition relation)
    /// should build the schedule once with [`crate::BddManager::quant_schedule`] and
    /// replay it with [`crate::BddManager::and_exists_schedule`].
    #[cfg_attr(not(test), allow(dead_code))] // exercised by in-crate tests
    pub fn and_exists_multi(&mut self, operands: &[Ref], vars: &[VarId]) -> Ref {
        let schedule = self.quant_schedule(operands, vars);
        self.and_exists_schedule(Ref::TRUE, operands, &schedule)
    }

    /// Shannon cofactor by a literal: `f` with `var` fixed to `value`.
    ///
    /// (The care-set generalized cofactors live in `simplify.rs` as
    /// [`Inner::constrain`] and [`Inner::restrict`].)
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

    /// Cofactors `f` by a partial assignment given as literals.
    pub fn cofactor_cube(&mut self, f: Ref, literals: &[(VarId, bool)]) -> Ref {
        let mut cur = f;
        for &(v, val) in literals {
            cur = self.cofactor(cur, v, val);
        }
        cur
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
    fn and_exists_multi_matches_monolithic() {
        let mut b = Inner::new();
        let vars = b.new_vars(8);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        // Three "clusters" with staggered supports plus a state set.
        let t0 = b.iff(lits[4], lits[0]);
        let t1 = {
            let x = b.xor(lits[0], lits[1]);
            b.iff(lits[5], x)
        };
        let t2 = {
            let x = b.and(lits[1], lits[2]);
            b.iff(lits[6], x)
        };
        let set = b.or(lits[0], lits[2]);
        let quantified = [vars[0], vars[1], vars[2], vars[3]];
        let operands = [set, t0, t1, t2];
        let fused = b.and_exists_multi(&operands, &quantified);
        let mono = b.and_many(operands);
        let two_step = b.exists(mono, &quantified);
        assert_eq!(fused, two_step);
    }

    #[test]
    fn schedule_eliminates_at_last_occurrence() {
        let mut b = Inner::new();
        let vars = b.new_vars(6);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let t0 = b.and(lits[0], lits[1]);
        let t1 = b.or(lits[1], lits[2]);
        let sched = b.quant_schedule(&[t0, t1], &[vars[0], vars[1], vars[3]]);
        // var 0 ends at operand 0, var 1 at operand 1, var 3 nowhere.
        assert_eq!(sched.at[0], vec![vars[0]]);
        assert_eq!(sched.at[1], vec![vars[1]]);
        assert_eq!(sched.pre, vec![vars[3]]);
    }

    #[test]
    fn schedule_replay_matches_monolithic_with_seed() {
        let mut b = Inner::new();
        let vars = b.new_vars(6);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let t0 = b.iff(lits[3], lits[0]);
        let t1 = {
            let x = b.xor(lits[1], lits[0]);
            b.iff(lits[4], x)
        };
        let seed = b.and(lits[0], lits[2]);
        let quantified = [vars[0], vars[1], vars[2], vars[5]];
        let sched = b.quant_schedule(&[t0, t1], &quantified);
        let fused = b.and_exists_schedule(seed, &[t0, t1], &sched);
        let conj = {
            let c = b.and(seed, t0);
            b.and(c, t1)
        };
        let mono = b.exists(conj, &quantified);
        assert_eq!(fused, mono);
    }

    #[test]
    fn and_exists_multi_empty_operands() {
        let mut b = Inner::new();
        let x = b.new_var();
        assert!(b.and_exists_multi(&[], &[x]).is_true());
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
    fn cofactor_cube_applies_all_literals() {
        let mut b = Inner::new();
        let vars = b.new_vars(3);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let c = b.and(lits[0], lits[1]);
        let f = b.or(c, lits[2]);
        let g = b.cofactor_cube(f, &[(vars[0], true), (vars[2], false)]);
        assert_eq!(g, lits[1]);
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
