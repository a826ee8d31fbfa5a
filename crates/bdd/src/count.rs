//! Model counting and satisfying-assignment extraction.

use std::collections::HashMap;

use crate::manager::Inner;
use crate::node::{Ref, VarId};

impl Inner {
    /// Fraction of assignments (over all variables) satisfying `f`,
    /// in `[0, 1]`. Independent of how many variables exist because each
    /// skipped level halves both branches equally.
    pub fn density(&self, f: Ref) -> f64 {
        let mut memo: HashMap<Ref, f64> = HashMap::new();
        self.density_rec(f, &mut memo)
    }

    fn density_rec(&self, f: Ref, memo: &mut HashMap<Ref, f64>) -> f64 {
        if f.is_true() {
            return 1.0;
        }
        if f.is_false() {
            return 0.0;
        }
        if let Some(&d) = memo.get(&f) {
            return d;
        }
        let n = self.node(f);
        let d = 0.5 * (self.density_rec(n.lo, memo) + self.density_rec(n.hi, memo));
        memo.insert(f, d);
        d
    }

    /// Number of satisfying assignments of `f` over the variable universe
    /// `vars`, as a floating-point value.
    ///
    /// This is the statistic used to compute coverage percentages: the
    /// number of states in a symbolic state set.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the support of `f` is not contained in
    /// `vars` (the count would be meaningless).
    pub fn sat_count_over(&self, f: Ref, vars: &[VarId]) -> f64 {
        debug_assert!(
            {
                let sup = self.support(f);
                let set: std::collections::HashSet<VarId> = vars.iter().copied().collect();
                sup.iter().all(|v| set.contains(v))
            },
            "support of f must be within the counting universe"
        );
        self.density(f) * 2f64.powi(vars.len() as i32)
    }

    /// Exact number of satisfying assignments of `f` over `vars`, when the
    /// universe has at most 127 variables.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() > 127`; in debug builds also panics when the
    /// support of `f` is not contained in `vars`.
    pub fn sat_count_exact(&self, f: Ref, vars: &[VarId]) -> u128 {
        assert!(vars.len() <= 127, "exact counting limited to 127 variables");
        debug_assert!(
            {
                let sup = self.support(f);
                let set: std::collections::HashSet<VarId> = vars.iter().copied().collect();
                sup.iter().all(|v| set.contains(v))
            },
            "support of f must be within the counting universe"
        );
        // Order the universe by level so path-skipping math is simple.
        let mut levels: Vec<u32> = vars.iter().map(|&v| self.level_of(v)).collect();
        levels.sort_unstable();
        let mut memo: HashMap<Ref, u128> = HashMap::new();
        let total_levels = levels.len();
        let count = self.exact_rec(f, &levels, &mut memo);
        // exact_rec counts assignments over levels *below* the root of f;
        // scale by the levels above the root.
        let above = levels.iter().take_while(|&&l| l < self.level(f)).count();
        let _ = total_levels;
        count << above
    }

    /// Counts assignments over the suffix of `levels` at or below `f`'s level.
    fn exact_rec(&self, f: Ref, levels: &[u32], memo: &mut HashMap<Ref, u128>) -> u128 {
        let remaining = levels.iter().skip_while(|&&l| l < self.level(f)).count() as u32;
        if f.is_false() {
            return 0;
        }
        if f.is_true() {
            return 1u128 << remaining;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let n = self.node(f);
        let clo = self.exact_rec(n.lo, levels, memo);
        let chi = self.exact_rec(n.hi, levels, memo);
        // Children counts cover levels strictly below each child's root;
        // scale them up to "levels strictly below f's root".
        let below_f: Vec<u32> = levels
            .iter()
            .copied()
            .filter(|&l| l > self.level(f))
            .collect();
        let scale = |child: Ref, c: u128| -> u128 {
            let skipped = below_f
                .iter()
                .take_while(|&&l| l < self.level(child))
                .count();
            c << skipped
        };
        let total = scale(n.lo, clo) + scale(n.hi, chi);
        memo.insert(f, total);
        total
    }

    /// Returns the smallest satisfying assignment of `f` over `vars` in
    /// the order of `vars`, false before true, or `None` if `f` is
    /// unsatisfiable. A cofactor walk: each variable in turn takes
    /// `false` unless that cofactor is empty, so the pick is a function
    /// of `f` and `vars` alone, whatever the variable order. Variables
    /// outside `vars` are existentially quantified.
    pub fn pick_minterm(&mut self, f: Ref, vars: &[VarId]) -> Option<Vec<(VarId, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut cur = f;
        let mut minterm = Vec::with_capacity(vars.len());
        for &v in vars {
            let lo = self.cofactor(cur, v, false);
            let value = lo.is_false();
            cur = if value {
                self.cofactor(cur, v, true)
            } else {
                lo
            };
            minterm.push((v, value));
        }
        Some(minterm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_of_single_var_is_half() {
        let mut b = Inner::new();
        let x = b.new_var();
        let fx = b.var(x);
        assert_eq!(b.density(fx), 0.5);
        assert_eq!(b.density(Ref::TRUE), 1.0);
        assert_eq!(b.density(Ref::FALSE), 0.0);
    }

    #[test]
    fn sat_count_over_universe() {
        let mut b = Inner::new();
        let vars = b.new_vars(4);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let f = b.and(lits[0], lits[1]);
        assert_eq!(b.sat_count_over(f, &vars), 4.0); // 2 free vars
        assert_eq!(b.sat_count_exact(f, &vars), 4);
    }

    #[test]
    fn exact_count_matches_float_on_random_functions() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut b = Inner::new();
            let vars = b.new_vars(6);
            let mut f = Ref::FALSE;
            for _ in 0..6 {
                let mut cube = Ref::TRUE;
                for &v in &vars {
                    match rng.gen_range(0..3) {
                        0 => {
                            let l = b.var(v);
                            cube = b.and(cube, l);
                        }
                        1 => {
                            let l = b.nvar(v);
                            cube = b.and(cube, l);
                        }
                        _ => {}
                    }
                }
                f = b.or(f, cube);
            }
            let exact = b.sat_count_exact(f, &vars) as f64;
            let float = b.sat_count_over(f, &vars);
            assert!((exact - float).abs() < 1e-6, "exact={exact} float={float}");
        }
    }

    #[test]
    fn pick_minterm_satisfies() {
        let mut b = Inner::new();
        let vars = b.new_vars(3);
        let l0 = b.nvar(vars[0]);
        let l2 = b.var(vars[2]);
        let f = b.and(l0, l2);
        let m = b.pick_minterm(f, &vars).expect("satisfiable");
        let lookup: HashMap<VarId, bool> = m.into_iter().collect();
        assert!(b.eval(f, &|v| lookup[&v]));
        assert!(b.pick_minterm(Ref::FALSE, &vars).is_none());
    }
}
