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

    /// Iterates over the satisfying *cubes* of `f`: partial assignments
    /// labelling each root-to-`TRUE` path. Variables absent from a cube
    /// are unconstrained.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by in-crate tests
    pub fn cubes(&self, f: Ref) -> Cubes<'_> {
        Cubes {
            bdd: self,
            stack: if f.is_false() {
                vec![]
            } else {
                vec![(f, Vec::new())]
            },
        }
    }

    /// Iterates over the full minterms of `f` with respect to the variable
    /// universe `vars` (each item is aligned with `vars`).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the support of `f` is not contained in
    /// `vars`.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by in-crate tests
    pub fn minterms_over<'a>(&'a self, f: Ref, vars: &'a [VarId]) -> Minterms<'a> {
        debug_assert!(
            {
                let sup = self.support(f);
                let set: std::collections::HashSet<VarId> = vars.iter().copied().collect();
                sup.iter().all(|v| set.contains(v))
            },
            "support of f must be within the minterm universe"
        );
        let mut ordered: Vec<VarId> = vars.to_vec();
        ordered.sort_by_key(|&v| self.level_of(v));
        Minterms {
            bdd: self,
            vars: ordered,
            out_order: vars,
            stack: if f.is_false() {
                vec![]
            } else {
                vec![(f, 0, Vec::new())]
            },
        }
    }
}

/// Iterator over satisfying cubes; see [`Inner::cubes`].
#[derive(Debug)]
pub struct Cubes<'a> {
    bdd: &'a Inner,
    stack: Vec<(Ref, Vec<(VarId, bool)>)>,
}

impl Iterator for Cubes<'_> {
    type Item = Vec<(VarId, bool)>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((r, path)) = self.stack.pop() {
            if r.is_true() {
                return Some(path);
            }
            if r.is_false() {
                continue;
            }
            let n = self.bdd.node(r);
            let v = VarId(n.var);
            if !n.hi.is_false() {
                let mut p = path.clone();
                p.push((v, true));
                self.stack.push((n.hi, p));
            }
            if !n.lo.is_false() {
                let mut p = path;
                p.push((v, false));
                self.stack.push((n.lo, p));
            }
        }
        None
    }
}

/// Iterator over full minterms; see [`Inner::minterms_over`].
#[derive(Debug)]
pub struct Minterms<'a> {
    bdd: &'a Inner,
    /// Universe ordered by level.
    vars: Vec<VarId>,
    /// Universe in caller order, used for the output layout.
    out_order: &'a [VarId],
    /// (node, index into `vars`, values chosen so far — parallel to `vars`).
    stack: Vec<(Ref, usize, Vec<bool>)>,
}

impl Iterator for Minterms<'_> {
    type Item = Vec<(VarId, bool)>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((r, idx, values)) = self.stack.pop() {
            if r.is_false() {
                continue;
            }
            if idx == self.vars.len() {
                debug_assert!(r.is_true());
                let map: HashMap<VarId, bool> = self
                    .vars
                    .iter()
                    .copied()
                    .zip(values.iter().copied())
                    .collect();
                return Some(self.out_order.iter().map(|&v| (v, map[&v])).collect());
            }
            let v = self.vars[idx];
            let node_level = self.bdd.level(r);
            let var_level = self.bdd.level_of(v);
            if !r.is_const() && node_level == var_level {
                let n = self.bdd.node(r);
                let mut hi_values = values.clone();
                hi_values.push(true);
                self.stack.push((n.hi, idx + 1, hi_values));
                let mut lo_values = values;
                lo_values.push(false);
                self.stack.push((n.lo, idx + 1, lo_values));
            } else {
                // Variable unconstrained at this point: branch on it.
                let mut hi_values = values.clone();
                hi_values.push(true);
                self.stack.push((r, idx + 1, hi_values));
                let mut lo_values = values;
                lo_values.push(false);
                self.stack.push((r, idx + 1, lo_values));
            }
        }
        None
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

    #[test]
    fn cubes_cover_function() {
        let mut b = Inner::new();
        let vars = b.new_vars(3);
        let l0 = b.var(vars[0]);
        let l1 = b.var(vars[1]);
        let l2 = b.var(vars[2]);
        let c01 = b.and(l0, l1);
        let f = b.or(c01, l2);
        let cubes: Vec<_> = b.cubes(f).collect();
        let mut rebuilt = Ref::FALSE;
        for cube in cubes {
            let mut c = Ref::TRUE;
            for (v, val) in cube {
                let lit = b.literal(v, val);
                c = b.and(c, lit);
            }
            rebuilt = b.or(rebuilt, c);
        }
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn minterms_enumerate_exact_count() {
        let mut b = Inner::new();
        let vars = b.new_vars(4);
        let l0 = b.var(vars[0]);
        let l3 = b.nvar(vars[3]);
        let f = b.or(l0, l3);
        let count = b.minterms_over(f, &vars).count() as u128;
        assert_eq!(count, b.sat_count_exact(f, &vars));
        for m in b.minterms_over(f, &vars) {
            let lookup: HashMap<VarId, bool> = m.into_iter().collect();
            assert!(b.eval(f, &|v| lookup[&v]));
        }
    }

    #[test]
    fn minterms_of_true_enumerate_universe() {
        let mut b = Inner::new();
        let vars = b.new_vars(3);
        assert_eq!(b.minterms_over(Ref::TRUE, &vars).count(), 8);
        assert_eq!(b.minterms_over(Ref::FALSE, &vars).count(), 0);
    }
}
