//! Substitution: variable renaming on a simultaneous-substitution core.
//!
//! The substitution map is a manager-owned scratch vector indexed by
//! variable (`NIL_REF` = identity), and the per-call memo is the shared
//! generation-tagged unary cache — no allocation, no hashing of boxed
//! keys, one array read per node visit.

use crate::manager::Inner;
use crate::node::{Ref, VarId};

/// Identity marker in the substitution scratch vector. Never a valid
/// node: the arena allocator keeps slots below `FREE_VAR < u32::MAX`.
const NIL_REF: Ref = Ref(u32::MAX);

impl Inner {
    /// Simultaneous functional composition: every variable in `map` is
    /// replaced by the associated function, all at once.
    ///
    /// Simultaneity matters: `vector_compose(f, {x ↦ y, y ↦ x})` swaps the
    /// two variables, whereas two sequential substitutions would collapse
    /// them.
    fn vector_compose(&mut self, f: Ref, map: &[(VarId, Ref)]) -> Ref {
        // Move the scratch vector out so the recursion can borrow `self`
        // mutably; hand it back afterwards to keep its capacity.
        let mut subst = std::mem::take(&mut self.subst_scratch);
        subst.clear();
        subst.resize(self.num_vars(), NIL_REF);
        for &(v, g) in map {
            subst[v.index()] = g;
        }
        let tag = self.quant_cache.begin();
        let r = self.compose_rec(f, &subst, tag);
        self.subst_scratch = subst;
        r
    }

    fn compose_rec(&mut self, f: Ref, subst: &[Ref], tag: u64) -> Ref {
        if f.is_const() {
            return f;
        }
        if let Some(r) = self.quant_cache.lookup(tag, f) {
            return r;
        }
        let n = self.node(f);
        let lo = self.compose_rec(n.lo, subst, tag);
        let hi = self.compose_rec(n.hi, subst, tag);
        let selector = match subst[n.var as usize] {
            NIL_REF => self.var(VarId(n.var)),
            g => g,
        };
        // ITE keeps the result canonical even when the substituted
        // function's support lies above the current level.
        let r = self.ite(selector, hi, lo);
        self.quant_cache.insert(tag, f, r);
        r
    }

    /// Renames variables according to `pairs`, interpreted as a
    /// simultaneous swap-free mapping `from → to`.
    ///
    /// Used to move a function between the current-state and next-state
    /// variable ranks of a transition system.
    pub fn rename(&mut self, f: Ref, pairs: &[(VarId, VarId)]) -> Ref {
        let map: Vec<(VarId, Ref)> = pairs
            .iter()
            .map(|&(from, to)| {
                let tref = self.var(to);
                (from, tref)
            })
            .collect();
        self.vector_compose(f, &map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_with_constant_is_cofactor() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let f = b.and(fx, fy);
        let via_compose = b.vector_compose(f, &[(x, Ref::TRUE)]);
        let via_cofactor = b.cofactor(f, x, true);
        assert_eq!(via_compose, via_cofactor);
        assert_eq!(via_compose, fy);
    }

    #[test]
    fn vector_compose_is_simultaneous() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let nx = b.not(fx);
        let f = b.and(fx, fy); // x ∧ y
        let g = b.vector_compose(f, &[(x, fy), (y, nx)]);
        // Simultaneous: y ∧ ¬x.
        let expect = {
            let t = b.not(fx);
            b.and(fy, t)
        };
        assert_eq!(g, expect);
    }

    #[test]
    fn rename_moves_support() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let z = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let f = b.and(fx, fy);
        let g = b.rename(f, &[(x, z)]);
        let support = b.support(g);
        assert_eq!(support, vec![y, z]);
    }

    #[test]
    fn swap_is_involution() {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let z = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let fz = b.var(z);
        let fxy = b.xor(fx, fy);
        let f = b.or(fxy, fz);
        // Swapping x and y is one simultaneous two-way substitution.
        let g = b.vector_compose(f, &[(x, fy), (y, fx)]);
        let h = b.vector_compose(g, &[(x, fy), (y, fx)]);
        assert_eq!(f, h);
    }

    #[test]
    fn rename_against_reversed_order() {
        // Renaming to a variable *above* the source in the order must
        // still produce a canonical result.
        let mut b = Inner::new();
        let a = b.new_var(); // level 0
        let c = b.new_var(); // level 1
        let fc = b.var(c);
        let fa = b.var(a);
        let renamed = b.rename(fc, &[(c, a)]);
        assert_eq!(renamed, fa);
    }
}
