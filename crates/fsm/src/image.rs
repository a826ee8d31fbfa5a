//! One transition relation: every image and preimage is a single fused
//! relational product on it.
//!
//! Every fixpoint in the workspace — `reachable(S0)`, the EX/EU/EG
//! fixpoints behind observability, the covered-set traversals, trace
//! replay — reduces to image/preimage computation. The engine holds the
//! compiler's conjunctive partition of `T` (one part per state bit plus
//! any raw constraints) and conjoins it into one BDD the first time an
//! image needs it. A deck machine asks for its first image only after the
//! startup sift, so the sift reorders the parts rather than the much
//! larger relation. Each image is then one `and_exists` on `T`.
//!
//! A state bit's part `x' ↔ δ` is total by construction when `δ` reads no
//! next-state variable: whatever the state and input, `x' = δ` is a
//! successor. So the totality check, which every `build()` runs, checks
//! only the raw constraints when none of them mentions such an `x'`.
//!
//! The parts, the relation and the cached reachable set are owned
//! [`Func`] handles, so the engine pins itself across garbage collection
//! and reordering — no root enumeration is needed or possible.

use std::cell::RefCell;

use covest_bdd::{BddManager, Func, VarId};

/// The transition relation of a [`SymbolicFsm`](crate::SymbolicFsm) and
/// the image computations on it.
///
/// Holds the conjunctive partition, the relation conjoined from it on
/// first use, and the cached reachable-from-init set. All BDD state is
/// owned [`Func`] handles: the engine keeps itself alive across
/// collection and reordering.
#[derive(Debug, Clone)]
pub struct ImageEngine {
    mgr: BddManager,
    /// The functional parts `x' ↔ δ`, one per state bit with a next-state
    /// function, then the raw constraints.
    parts: Vec<Func>,
    /// The `x'` of each leading part of `parts` that is total by
    /// construction: empty unless every `δ` reads no next-state variable
    /// and the `x'` are distinct next-state variables.
    total_nexts: Vec<VarId>,
    /// Current-state + input variables (forward quantification set).
    fwd_vars: Vec<VarId>,
    /// Next-state + input variables (backward quantification set).
    bwd_vars: Vec<VarId>,
    /// Next-state variables only (backward, inputs kept).
    next_vars: Vec<VarId>,
    /// The conjunction of `parts`, built on first request.
    relation: RefCell<Option<Func>>,
    /// Cached reachable-from-init set (computed by
    /// [`crate::SymbolicFsm::reachable`]).
    reach: RefCell<Option<Func>>,
}

impl ImageEngine {
    /// Builds an engine over the conjunctive partition of one part
    /// `x' ↔ δ` per `(x', δ)` of `functions`, then the raw `constraints`.
    /// One support walk over every `δ` decides whether the functional
    /// parts are total by construction. Nothing is conjoined yet.
    pub fn build(
        mgr: &BddManager,
        functions: &[(VarId, Func)],
        constraints: &[Func],
        current_vars: &[VarId],
        input_vars: &[VarId],
        next_vars: &[VarId],
    ) -> ImageEngine {
        let mut fwd_vars = current_vars.to_vec();
        fwd_vars.extend_from_slice(input_vars);
        let mut bwd_vars = next_vars.to_vec();
        bwd_vars.extend_from_slice(input_vars);
        // `δ ? x' : ¬x'` is `x' ↔ δ` without first building `¬δ`.
        let mut parts: Vec<Func> = functions
            .iter()
            .map(|(x, delta)| delta.ite(&mgr.var(*x), &mgr.nvar(*x)))
            .collect();
        parts.extend_from_slice(constraints);
        let mut next = vec![false; mgr.num_vars()];
        for v in next_vars {
            next[v.index()] = true;
        }
        let mut seen = vec![false; mgr.num_vars()];
        let distinct = functions
            .iter()
            .all(|(x, _)| next[x.index()] && !std::mem::replace(&mut seen[x.index()], true));
        let next_free = || {
            let support = mgr.support_many(functions.iter().map(|(_, delta)| delta));
            support.iter().all(|v| !next[v.index()])
        };
        let total_nexts = if distinct && next_free() {
            functions.iter().map(|(x, _)| *x).collect()
        } else {
            Vec::new()
        };
        ImageEngine {
            mgr: mgr.clone(),
            parts,
            total_nexts,
            fwd_vars,
            bwd_vars,
            next_vars: next_vars.to_vec(),
            relation: RefCell::new(None),
            reach: RefCell::new(None),
        }
    }

    /// The conjunctive partition of the transition relation.
    pub(crate) fn parts(&self) -> &[Func] {
        &self.parts
    }

    /// The conjunctive partition, under its old name. Kept only for the
    /// `perfbench` harness, which counts it; nothing under `crates/`
    /// calls it.
    pub fn clusters(&self) -> &[Func] {
        &self.parts
    }

    /// The transition relation over (current, input, next), conjoined
    /// from the parts on first request and cached.
    pub(crate) fn relation(&self) -> Func {
        if let Some(t) = self.relation.borrow().as_ref() {
            return t.clone();
        }
        let t = self.mgr.and_many(&self.parts);
        *self.relation.borrow_mut() = Some(t.clone());
        t
    }

    /// The cached reachable-from-init set, if it has been computed.
    pub(crate) fn cached_reach(&self) -> Option<Func> {
        self.reach.borrow().clone()
    }

    /// Caches the reachable-from-init set.
    pub(crate) fn cache_reach(&self, reach: Func) {
        *self.reach.borrow_mut() = Some(reach);
    }

    /// `∃ next. T` is the constant true: every state/input combination
    /// has a successor.
    ///
    /// A part `x' ↔ δ` total by construction (see [`ImageEngine::build`])
    /// that no raw constraint mentions drops out: `∃x'. (x' ↔ δ)` is true
    /// and no other part constrains `x'`, so `∃next. T` is `∃next` of the
    /// raw constraints alone. That holds for every compiled SMV deck,
    /// whose raw constraints are the validity of free input encodings.
    /// Otherwise every part is checked.
    pub(crate) fn is_total(&self) -> bool {
        let raw = &self.parts[self.total_nexts.len()..];
        let mentions = self.mentions(raw);
        if self.total_nexts.iter().all(|x| mentions[x.index()] == 0) {
            self.conjunction_total(raw, &mentions)
        } else {
            self.conjunction_total(&self.parts, &self.mentions(&self.parts))
        }
    }

    /// How many of `parts` mention each variable.
    fn mentions(&self, parts: &[Func]) -> Vec<usize> {
        let mut mentions = vec![0usize; self.mgr.num_vars()];
        for p in parts {
            for v in p.support() {
                mentions[v.index()] += 1;
            }
        }
        mentions
    }

    /// `∃next. ⋀parts` is true, for `parts` whose conjunction with the
    /// parts left out has the same `∃next`. When no two of them share a
    /// next-state variable, `∃next. ⋀p = ⋀ ∃next. p`, and a conjunction
    /// is true only if every conjunct is, so each part is checked on its
    /// own and `T` is never built; otherwise the relation is conjoined
    /// and checked whole.
    fn conjunction_total(&self, parts: &[Func], mentions: &[usize]) -> bool {
        if self.next_vars.iter().all(|v| mentions[v.index()] <= 1) {
            parts.iter().all(|p| p.exists(&self.next_vars).is_true())
        } else {
            self.relation().exists(&self.next_vars).is_true()
        }
    }

    /// `∃ current, inputs. T ∧ set` — the forward image of a state set
    /// (over current variables), as a BDD over **next** variables.
    pub fn forward(&self, set: &Func) -> Func {
        covest_telemetry::count("image_calls", 1);
        self.relation().and_exists(set, &self.fwd_vars)
    }

    /// `∃ next, inputs. T ∧ set_next` — the existential preimage of a
    /// state set already renamed to **next** variables, as a BDD over
    /// current variables.
    pub fn backward(&self, set_next: &Func) -> Func {
        covest_telemetry::count("preimage_calls", 1);
        self.relation().and_exists(set_next, &self.bwd_vars)
    }

    /// `∃ next. T ∧ set_next` — like [`ImageEngine::backward`] but keeping
    /// the input variables free: the result relates each predecessor
    /// state to the inputs justifying the transition. This is what trace
    /// replay needs.
    pub fn backward_with_inputs(&self, set_next: &Func) -> Func {
        covest_telemetry::count("preimage_calls", 1);
        self.relation().and_exists(set_next, &self.next_vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three-bit shifter: b0' = inp, b1' = b0, b2' = b1.
    fn shifter(mgr: &BddManager) -> (ImageEngine, Vec<VarId>, Vec<VarId>) {
        let mut cur = Vec::new();
        let mut next = Vec::new();
        for i in 0..3 {
            cur.push(mgr.new_named_var(format!("b{i}")));
            next.push(mgr.new_named_var(format!("b{i}'")));
        }
        let inp = vec![mgr.new_named_var("inp")];
        let srcs = [inp[0], cur[0], cur[1]];
        let functions: Vec<(VarId, Func)> = srcs
            .iter()
            .enumerate()
            .map(|(i, &src)| (next[i], mgr.var(src)))
            .collect();
        let engine = ImageEngine::build(mgr, &functions, &[], &cur, &inp, &next);
        (engine, cur, next)
    }

    /// Each functional part is the canonical `x' ↔ δ`, and the shifter's
    /// parts are total by construction.
    #[test]
    fn functional_parts_are_biconditionals_total_by_construction() {
        let mgr = BddManager::new();
        let (engine, cur, next) = shifter(&mgr);
        let inp = engine.fwd_vars[cur.len()];
        let srcs = [mgr.var(inp), mgr.var(cur[0]), mgr.var(cur[1])];
        for (i, src) in srcs.iter().enumerate() {
            assert_eq!(engine.parts()[i], mgr.var(next[i]).iff(src), "part {i}");
        }
        assert_eq!(engine.total_nexts, next);
        assert!(engine.is_total());
    }

    /// The fused products equal the two-step `(T ∧ S).exists(vars)` on
    /// the monolithic relation.
    #[test]
    fn forward_and_backward_match_monolithic() {
        let mgr = BddManager::new();
        let (engine, cur, next) = shifter(&mgr);
        let t = mgr.and_many(engine.parts());
        let two_step = |s: &Func, vars: &[VarId]| t.and(s).exists(vars);
        let (c0, c1, c2) = (mgr.var(cur[0]), mgr.var(cur[1]), mgr.var(cur[2]));
        let s1 = c0.and(&c1);
        let s2 = s1.or(&c2);
        for set in [
            mgr.constant(true),
            mgr.constant(false),
            c0,
            s1,
            s2.not(),
            s2,
        ] {
            assert_eq!(engine.forward(&set), two_step(&set, &engine.fwd_vars));
        }
        // Preimage operands live over next vars.
        let (n0, n2) = (mgr.var(next[0]), mgr.var(next[2]));
        for set_next in [mgr.constant(true), n0.xor(&n2), n0] {
            assert_eq!(
                engine.backward(&set_next),
                two_step(&set_next, &engine.bwd_vars)
            );
            assert_eq!(
                engine.backward_with_inputs(&set_next),
                two_step(&set_next, &next)
            );
        }
    }

    #[test]
    fn monolith_is_lazy_and_cached() {
        let mgr = BddManager::new();
        let (engine, ..) = shifter(&mgr);
        assert!(engine.relation.borrow().is_none());
        let t1 = engine.relation();
        assert_eq!(t1, mgr.and_many(engine.parts()));
        assert_eq!(engine.relation.borrow().as_ref(), Some(&t1));
        // The cached relation is an owned handle: it survives a rootless
        // collection without any explicit protection.
        mgr.gc();
        assert_eq!(engine.relation(), t1);
    }
}
