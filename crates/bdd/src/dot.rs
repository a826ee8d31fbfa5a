//! Graphviz DOT export for visual debugging of BDDs.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::manager::Inner;
use crate::node::{Ref, VarId};

impl Inner {
    /// Renders the graph of `roots` in Graphviz DOT format.
    ///
    /// Solid edges are `hi` (variable true), dashed edges are `lo`.
    /// Named variables (see [`Inner::set_var_name`]) are used as labels.
    /// Decision nodes are named `n0`, `n1`, … in the order the walk first
    /// reaches them, so the dump is a function of the roots and the
    /// variable order alone, not of where the nodes sit in the arena.
    pub fn to_dot(&self, roots: &[(&str, Ref)]) -> String {
        let mut out = String::from("digraph bdd {\n  rankdir=TB;\n");
        out.push_str("  node [shape=circle];\n");
        out.push_str("  f0 [label=\"0\", shape=box];\n");
        out.push_str("  f1 [label=\"1\", shape=box];\n");
        let mut ids: HashMap<Ref, usize> = HashMap::new();
        let mut stack: Vec<Ref> = Vec::new();
        for (name, r) in roots {
            let _ = writeln!(
                out,
                "  root_{n} [label=\"{n}\", shape=plaintext];\n  root_{n} -> {};",
                dot_id(&mut ids, *r),
                n = sanitize(name),
            );
            stack.push(*r);
        }
        let mut done: Vec<bool> = vec![false; self.nodes.len()];
        while let Some(r) = stack.pop() {
            if r.is_const() || std::mem::replace(&mut done[r.index()], true) {
                continue;
            }
            let n = self.node(r);
            let label = self
                .var_name(VarId(n.var))
                .map(str::to_owned)
                .unwrap_or_else(|| format!("v{}", n.var));
            let me = dot_id(&mut ids, r);
            let lo = dot_id(&mut ids, n.lo);
            let hi = dot_id(&mut ids, n.hi);
            let _ = writeln!(out, "  {me} [label=\"{label}\"];");
            let _ = writeln!(out, "  {me} -> {lo} [style=dashed];");
            let _ = writeln!(out, "  {me} -> {hi};");
            stack.push(n.lo);
            stack.push(n.hi);
        }
        out.push_str("}\n");
        out
    }
}

/// The DOT name of `r`: `f0`/`f1` for the terminals, otherwise `nK` with
/// `K` the number of decision nodes named before it.
fn dot_id(ids: &mut HashMap<Ref, usize>, r: Ref) -> String {
    match r {
        Ref::FALSE => "f0".to_owned(),
        Ref::TRUE => "f1".to_owned(),
        _ => {
            let next = ids.len();
            format!("n{}", ids.entry(r).or_insert(next))
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut b = Inner::new();
        let x = b.new_named_var("x");
        let y = b.new_var();
        let fx = b.var(x);
        let fy = b.var(y);
        let f = b.and(fx, fy);
        let dot = b.to_dot(&[("f", f)]);
        assert!(dot.contains("digraph bdd"));
        assert!(dot.contains("label=\"x\""));
        assert!(dot.contains("label=\"v1\""));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("root_f"));
        // Two decision nodes for x ∧ y.
        assert_eq!(dot.matches("label=\"x\"").count(), 1);
    }

    /// Node names follow the walk, not the arena: the same function dumps
    /// byte-identically on a fresh manager and on one whose slots are
    /// littered with garbage and recycled.
    #[test]
    fn dot_names_do_not_depend_on_arena_slots() {
        fn build(b: &mut Inner, vars: &[VarId]) -> Ref {
            let mut f = Ref::FALSE;
            for pair in vars.chunks(2) {
                let a = b.var(pair[0]);
                let c = b.nvar(pair[1]);
                let t = b.and(a, c);
                f = b.or(f, t);
            }
            f
        }
        let named = |b: &mut Inner| -> Vec<VarId> {
            (0..6).map(|i| b.new_named_var(format!("x{i}"))).collect()
        };
        let mut fresh = Inner::new();
        let vars = named(&mut fresh);
        let f = build(&mut fresh, &vars);

        let mut dirty = Inner::new();
        let vars = named(&mut dirty);
        for w in vars.windows(3) {
            let (a, b, c) = (dirty.var(w[0]), dirty.var(w[1]), dirty.nvar(w[2]));
            let x = dirty.xor(a, b);
            let _junk = dirty.iff(x, c);
        }
        dirty.gc(&[]);
        let (a, b) = (dirty.var(vars[5]), dirty.nvar(vars[0]));
        let _junk = dirty.xor(a, b);
        let g = build(&mut dirty, &vars);
        assert_ne!(f, g, "the test needs different slots");
        assert_eq!(fresh.to_dot(&[("f", f)]), dirty.to_dot(&[("f", g)]));
    }

    #[test]
    fn dot_of_constant() {
        let b = Inner::new();
        let dot = b.to_dot(&[("t", Ref::TRUE)]);
        assert!(dot.contains("root_t -> f1"));
    }
}
