//! The public, ownership-based BDD API: [`BddManager`] and [`Func`].
//!
//! A [`BddManager`] is a cheaply clonable shared handle to one BDD engine
//! (node arena, unique table, caches, reordering state). A [`Func`] is an
//! owned handle to one Boolean function on that manager: it holds a slot
//! in the manager's *external-root table*, so as long as the `Func` is
//! alive its function is pinned through garbage collection and dynamic
//! variable reordering. `Clone` increments the slot's refcount, `Drop`
//! decrements it — both O(1) — and [`BddManager::gc`] /
//! [`BddManager::reduce_heap`] therefore need **no roots argument**: the
//! root table is the complete external live set by construction.
//!
//! Correctness under GC and reordering is guaranteed by ownership
//! rather than by a caller-maintained roots contract: every live
//! [`Func`] survives any collection or reordering with unchanged
//! meaning. The one sharp edge left is lazy traversal: the
//! [`Func::minterms_over`] iterator must not span a reordering (see its
//! docs), and [`Func::eval`] holds a shared borrow so a mutating
//! re-entry panics instead of misbehaving.
//!
//! # Example
//!
//! ```
//! use covest_bdd::BddManager;
//!
//! let mgr = BddManager::new();
//! let x = mgr.new_var();
//! let y = mgr.new_var();
//! let f = mgr.var(x).implies(&mgr.var(y));
//! assert_eq!(f.sat_count_exact(&[x, y]), 3);
//! // Operator sugar works too, and nothing needs `&mut` threading:
//! let g = &mgr.var(x) & &mgr.var(y);
//! assert!(g.leq(&f.ite(&g, &mgr.constant(false))));
//! // Collection takes no roots — live handles pin themselves.
//! mgr.gc();
//! assert!(g.and(&f).eval(&|_| true));
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::manager::Inner;
use crate::node::{Ref, VarId};
use crate::reorder::{ReorderConfig, ReorderStats};
use crate::stats::BddStats;

/// Root-table sentinel for the constant-false handle (terminals are
/// never stored in the table; their slots are virtual).
const SLOT_FALSE: u32 = u32::MAX;
/// Root-table sentinel for the constant-true handle.
const SLOT_TRUE: u32 = u32::MAX - 1;

/// A shared handle to a BDD manager.
///
/// Cloning is O(1) and yields a handle to the *same* engine; all
/// [`Func`]s created through any clone interoperate. The manager owns
/// the node arena, the level-organized unique table, the operation
/// caches, the dynamic-reordering state and the external-root table.
#[derive(Clone, Default)]
pub struct BddManager {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for BddManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("BddManager")
            .field("vars", &inner.num_vars())
            .field("live_nodes", &inner.live_nodes())
            .field("roots", &inner.ext_live())
            .finish()
    }
}

impl BddManager {
    /// Creates an empty manager with no variables.
    pub fn new() -> Self {
        BddManager {
            inner: Rc::new(RefCell::new(Inner::new())),
        }
    }

    // ---- variables ----------------------------------------------------

    /// Creates a fresh variable, ordered after all existing variables.
    pub fn new_var(&self) -> VarId {
        self.inner.borrow_mut().new_var()
    }

    /// Creates `n` fresh variables, ordered after all existing variables.
    pub fn new_vars(&self, n: usize) -> Vec<VarId> {
        self.inner.borrow_mut().new_vars(n)
    }

    /// Creates a fresh named variable (the name shows up in DOT dumps).
    pub fn new_named_var(&self, name: impl Into<String>) -> VarId {
        self.inner.borrow_mut().new_named_var(name)
    }

    /// Assigns a debug name to a variable.
    pub fn set_var_name(&self, var: VarId, name: impl Into<String>) {
        self.inner.borrow_mut().set_var_name(var, name);
    }

    /// Returns the debug name of `var`, if one was assigned.
    pub fn var_name(&self, var: VarId) -> Option<String> {
        self.inner.borrow().var_name(var).map(str::to_owned)
    }

    /// Number of variables created on this manager.
    pub fn num_vars(&self) -> usize {
        self.inner.borrow().num_vars()
    }

    /// Total number of allocated (live or freed-but-unreused) node slots,
    /// including the two terminals. This is the "BDD nodes" statistic
    /// reported in the paper's Table 2.
    pub fn table_size(&self) -> usize {
        self.inner.borrow().table_size()
    }

    /// Number of live nodes (allocated slots minus the free list).
    pub fn live_nodes(&self) -> usize {
        self.inner.borrow().live_nodes()
    }

    /// One combined reading of the memory gauges — `(live_nodes,
    /// arena_bytes, peak_live_nodes)` — in a single borrow. The
    /// telemetry memory sampler calls this at every span boundary and
    /// event, so the three gauges must come from one consistent
    /// snapshot (and one cell borrow, not three).
    pub fn mem_gauges(&self) -> (usize, usize, u64) {
        let inner = self.inner.borrow();
        (
            inner.live_nodes(),
            inner.arena_bytes(),
            inner.stats().peak_live_nodes,
        )
    }

    /// Entries of the ITE, quantification and relational-product caches,
    /// in that order. Each is sized with the node arena: twice the
    /// largest power of two not above [`BddManager::table_size`], at
    /// least 2^10 and at most 2^16, 2^15 and 2^15 respectively.
    pub fn cache_entries(&self) -> [usize; 3] {
        self.inner.borrow().cache_entries()
    }

    /// Number of live external-root slots (distinct live [`Func`]
    /// handles; clones share a slot).
    pub fn live_roots(&self) -> usize {
        self.inner.borrow().ext_live()
    }

    /// The level (position in the variable order, `0` = topmost) of `var`.
    pub fn level_of(&self, var: VarId) -> u32 {
        self.inner.borrow().level_of(var)
    }

    // ---- function constructors ----------------------------------------

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> Func {
        Func {
            mgr: self.inner.clone(),
            slot: if value { SLOT_TRUE } else { SLOT_FALSE },
        }
    }

    /// The function that is true exactly when `var` is true.
    pub fn var(&self, var: VarId) -> Func {
        let mut inner = self.inner.borrow_mut();
        let r = inner.var(var);
        Func::wrap(&self.inner, &mut inner, r)
    }

    /// The function that is true exactly when `var` is false.
    pub fn nvar(&self, var: VarId) -> Func {
        let mut inner = self.inner.borrow_mut();
        let r = inner.nvar(var);
        Func::wrap(&self.inner, &mut inner, r)
    }

    /// A literal: `var` if `positive`, `!var` otherwise.
    pub fn literal(&self, var: VarId, positive: bool) -> Func {
        if positive {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    /// Checks a foreign handle belongs to this engine before its slot is
    /// used to index the root table (a wrong-manager slot would resolve
    /// to an unrelated function).
    #[inline]
    fn check_same_mgr(&self, f: &Func) {
        assert!(
            Rc::ptr_eq(&self.inner, &f.mgr),
            "Func belongs to a different BddManager"
        );
    }

    /// Conjunction of many operands (true for the empty sequence).
    pub fn and_many<'a, I: IntoIterator<Item = &'a Func>>(&self, fs: I) -> Func {
        let refs = self.raw_operands(fs);
        let mut inner = self.inner.borrow_mut();
        let r = inner.and_many(refs);
        Func::wrap(&self.inner, &mut inner, r)
    }

    /// Resolves a sequence of handles to raw refs, checking ownership.
    fn raw_operands<'a, I: IntoIterator<Item = &'a Func>>(&self, fs: I) -> Vec<Ref> {
        let inner = self.inner.borrow();
        fs.into_iter()
            .map(|f| {
                self.check_same_mgr(f);
                f.raw(&inner)
            })
            .collect()
    }

    // ---- reordering and collection ------------------------------------

    /// Declares that `vars` form a reordering group: they must currently
    /// occupy adjacent levels, and sifting will move them as one block,
    /// preserving their relative order. Typical use: a state bit's
    /// (current, next) variable pair.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two variables are given, if any variable is
    /// already grouped, or if the variables are not adjacent in the
    /// current order.
    pub fn group_vars(&self, vars: &[VarId]) {
        self.inner.borrow_mut().group_vars(vars);
    }

    /// The reorder group containing `var`, in level order, if any.
    pub fn group_of(&self, var: VarId) -> Option<Vec<VarId>> {
        self.inner.borrow().group_of(var)
    }

    /// Does nothing: [`BddManager::reduce_heap`] always sifts. Kept only
    /// for the `perfbench` harness, which calls it; nothing under
    /// `crates/` does.
    pub fn set_reorder_config(&self, _config: ReorderConfig) {}

    /// The complete current variable order, topmost level first.
    pub fn current_order(&self) -> Vec<VarId> {
        self.inner.borrow().current_order()
    }

    /// Sifts variables to shrink the BDDs reachable from the live
    /// [`Func`] handles. Takes no roots: the external-root table *is* the
    /// live set, so every handle survives with unchanged meaning.
    /// Everything else (dead intermediate results) is collected. No-op
    /// when no handle is live.
    pub fn reduce_heap(&self) -> ReorderStats {
        self.inner.borrow_mut().reduce_heap(&[])
    }

    /// Applies an explicit variable order (levels top to bottom) by
    /// swapping adjacent levels; every handle stays valid.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of all variables, or if it
    /// tears a declared group apart or reverses a group's internal order.
    pub fn set_order(&self, order: &[VarId]) {
        self.inner.borrow_mut().set_order(&[], order);
    }

    /// Garbage-collects every node not reachable from a live [`Func`].
    /// Takes no roots — handle ownership is the root set. All operation
    /// caches are dropped. Returns the number of freed node slots.
    pub fn gc(&self) -> usize {
        self.inner.borrow_mut().gc(&[])
    }

    /// GC checkpoint for phase boundaries: runs [`BddManager::gc`] when
    /// the live-node count has at least doubled since the last collection
    /// (a sift's included) and is at least 4,096, and returns the freed
    /// slots if it did. Safe to call at any point — live handles pin
    /// themselves.
    pub fn gc_checkpoint(&self) -> Option<usize> {
        self.inner.borrow_mut().gc_checkpoint(&[])
    }

    /// Drops all memoization caches (ITE plus the quantification scratch
    /// maps) without collecting any nodes.
    pub fn clear_caches(&self) {
        self.inner.borrow_mut().clear_caches();
    }

    // ---- engine counters ----------------------------------------------

    /// Snapshot of the deterministic engine counters: unique-table and
    /// memo hits/misses, gc and reorder activity, and the live-node
    /// high-water mark. See [`crate::BddStats`] for field semantics.
    pub fn stats(&self) -> BddStats {
        self.inner.borrow().stats()
    }

    /// Zeroes the engine counters, restarting the `peak_live_nodes`
    /// high-water mark at the current live-node count (never at zero).
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().reset_stats();
    }

    // ---- export -------------------------------------------------------

    /// Renders the graph of the named functions in Graphviz DOT format.
    ///
    /// Solid edges are `hi` (variable true), dashed edges are `lo`.
    /// Named variables (see [`BddManager::set_var_name`]) are used as
    /// labels.
    pub fn to_dot(&self, roots: &[(&str, &Func)]) -> String {
        let inner = self.inner.borrow();
        let pairs: Vec<(&str, Ref)> = roots.iter().map(|&(n, f)| (n, f.raw(&inner))).collect();
        inner.to_dot(&pairs)
    }
}

/// An owned handle to a Boolean function on a [`BddManager`].
///
/// The handle pins its function in the manager's external-root table:
/// garbage collection and dynamic reordering keep every live `Func` valid
/// and meaning-preserving, with no caller-side bookkeeping. `Clone` and
/// `Drop` are O(1).
///
/// Because the manager hash-conses nodes, two `Func`s on the same manager
/// compare equal **iff** they denote the same Boolean function
/// (canonicity); handles from different managers are never equal.
///
/// All operations go through the shared manager handle carried by the
/// `Func`, so no `&mut` manager threading is needed: `f.and(&g)`,
/// `&f | &g`, `f.node_count()`, … just work.
pub struct Func {
    mgr: Rc<RefCell<Inner>>,
    slot: u32,
}

impl Func {
    /// Wraps a raw engine result into an owned, rooted handle.
    pub(crate) fn wrap(mgr: &Rc<RefCell<Inner>>, inner: &mut Inner, r: Ref) -> Func {
        let slot = match r {
            Ref::FALSE => SLOT_FALSE,
            Ref::TRUE => SLOT_TRUE,
            _ => inner.ext_alloc(r),
        };
        Func {
            mgr: mgr.clone(),
            slot,
        }
    }

    /// The raw node this handle currently pins.
    pub(crate) fn raw(&self, inner: &Inner) -> Ref {
        match self.slot {
            SLOT_FALSE => Ref::FALSE,
            SLOT_TRUE => Ref::TRUE,
            s => inner.ext_ref(s),
        }
    }

    /// A manager handle for the engine this function lives on.
    pub fn manager(&self) -> BddManager {
        BddManager {
            inner: self.mgr.clone(),
        }
    }

    #[inline]
    fn assert_same_mgr(&self, other: &Func) {
        // A hard assert: in release builds a wrong-manager slot would
        // index this engine's root table and resolve to an unrelated
        // function (or panic out of bounds) — a silently wrong result,
        // not a safety net. The check is trivial next to any BDD op.
        assert!(
            Rc::ptr_eq(&self.mgr, &other.mgr),
            "Func handles belong to different managers"
        );
    }

    fn unop(&self, op: impl FnOnce(&mut Inner, Ref) -> Ref) -> Func {
        let mut inner = self.mgr.borrow_mut();
        let a = self.raw(&inner);
        let r = op(&mut inner, a);
        Func::wrap(&self.mgr, &mut inner, r)
    }

    fn binop(&self, other: &Func, op: impl FnOnce(&mut Inner, Ref, Ref) -> Ref) -> Func {
        self.assert_same_mgr(other);
        let mut inner = self.mgr.borrow_mut();
        let (a, b) = (self.raw(&inner), other.raw(&inner));
        let r = op(&mut inner, a, b);
        Func::wrap(&self.mgr, &mut inner, r)
    }

    // ---- predicates ---------------------------------------------------

    /// `true` if this is the constant-true function.
    pub fn is_true(&self) -> bool {
        self.slot == SLOT_TRUE
    }

    /// `true` if this is the constant-false function.
    pub fn is_false(&self) -> bool {
        self.slot == SLOT_FALSE
    }

    /// `true` if this is a constant function.
    pub fn is_const(&self) -> bool {
        self.is_true() || self.is_false()
    }

    // ---- connectives --------------------------------------------------

    /// Logical negation.
    pub fn not(&self) -> Func {
        self.unop(|i, a| i.not(a))
    }

    /// Logical conjunction.
    pub fn and(&self, other: &Func) -> Func {
        self.binop(other, |i, a, b| i.and(a, b))
    }

    /// Logical disjunction.
    pub fn or(&self, other: &Func) -> Func {
        self.binop(other, |i, a, b| i.or(a, b))
    }

    /// Exclusive or.
    pub fn xor(&self, other: &Func) -> Func {
        self.binop(other, |i, a, b| i.xor(a, b))
    }

    /// Biconditional (xnor).
    pub fn iff(&self, other: &Func) -> Func {
        self.binop(other, |i, a, b| i.iff(a, b))
    }

    /// Implication `self → other`.
    pub fn implies(&self, other: &Func) -> Func {
        self.binop(other, |i, a, b| i.implies(a, b))
    }

    /// Difference `self ∧ ¬other`.
    pub fn diff(&self, other: &Func) -> Func {
        self.binop(other, |i, a, b| i.diff(a, b))
    }

    /// If-then-else with `self` as the condition:
    /// `(self ∧ g) ∨ (¬self ∧ h)`.
    pub fn ite(&self, g: &Func, h: &Func) -> Func {
        self.assert_same_mgr(g);
        self.assert_same_mgr(h);
        let mut inner = self.mgr.borrow_mut();
        let (f, gr, hr) = (self.raw(&inner), g.raw(&inner), h.raw(&inner));
        let r = inner.ite(f, gr, hr);
        Func::wrap(&self.mgr, &mut inner, r)
    }

    /// Returns `true` if `self → other` is a tautology (set inclusion).
    pub fn leq(&self, other: &Func) -> bool {
        self.assert_same_mgr(other);
        let mut inner = self.mgr.borrow_mut();
        let (a, b) = (self.raw(&inner), other.raw(&inner));
        inner.leq(a, b)
    }

    // ---- quantification and substitution ------------------------------

    /// Existential quantification `∃ vars. self`.
    pub fn exists(&self, vars: &[VarId]) -> Func {
        self.unop(|i, a| i.exists(a, vars))
    }

    /// Universal quantification `∀ vars. self`.
    pub fn forall(&self, vars: &[VarId]) -> Func {
        self.unop(|i, a| i.forall(a, vars))
    }

    /// Fused relational product `∃ vars. (self ∧ other)`.
    pub fn and_exists(&self, other: &Func, vars: &[VarId]) -> Func {
        self.binop(other, |i, a, b| i.and_exists(a, b, vars))
    }

    /// Shannon cofactor by a literal: `self` with `var` fixed to `value`.
    pub fn cofactor(&self, var: VarId, value: bool) -> Func {
        self.unop(|i, a| i.cofactor(a, var, value))
    }

    /// Renames variables according to `pairs`, interpreted as a
    /// simultaneous swap-free mapping `from → to`.
    pub fn rename(&self, pairs: &[(VarId, VarId)]) -> Func {
        self.unop(|i, a| i.rename(a, pairs))
    }

    // ---- inspection ---------------------------------------------------

    /// Evaluates the function under a total assignment.
    ///
    /// The manager stays (shared-)borrowed for the whole walk: the
    /// assignment closure may *read* the manager, but a mutating call
    /// (new ops, gc, reordering) panics on the borrow — the traversal
    /// follows interior nodes that a collection could recycle.
    pub fn eval(&self, assignment: &dyn Fn(VarId) -> bool) -> bool {
        // Hold a shared borrow for the whole walk: the traversal follows
        // interior refs that are not individually rooted, so a mutating
        // manager call from the closure (which could reorder or collect
        // mid-walk) must panic on the borrow rather than silently walk
        // freed nodes. Read-only manager calls still work.
        let inner = self.mgr.borrow();
        let mut cur = self.raw(&inner);
        loop {
            if cur.is_const() {
                return cur.is_true();
            }
            let n = inner.node(cur);
            cur = if assignment(VarId::from_index(n.var as usize)) {
                n.hi
            } else {
                n.lo
            };
        }
    }

    /// Number of distinct decision nodes reachable from this function
    /// (excluding terminals) — the usual "BDD size" metric.
    pub fn node_count(&self) -> usize {
        let inner = self.mgr.borrow();
        let a = self.raw(&inner);
        inner.node_count(a)
    }

    /// The set of variables appearing in the function, sorted by index.
    pub fn support(&self) -> Vec<VarId> {
        let inner = self.mgr.borrow();
        let a = self.raw(&inner);
        inner.support(a)
    }

    /// The variable labelling the root node.
    ///
    /// # Panics
    ///
    /// Panics if the function is constant.
    pub fn root_var(&self) -> VarId {
        let inner = self.mgr.borrow();
        let a = self.raw(&inner);
        inner.root_var(a)
    }

    /// The cofactors `(lo, hi)` of the root node.
    ///
    /// # Panics
    ///
    /// Panics if the function is constant.
    pub fn children(&self) -> (Func, Func) {
        let mut inner = self.mgr.borrow_mut();
        let a = self.raw(&inner);
        let (lo, hi) = inner.children(a);
        (
            Func::wrap(&self.mgr, &mut inner, lo),
            Func::wrap(&self.mgr, &mut inner, hi),
        )
    }

    /// Number of satisfying assignments over the variable universe
    /// `vars`, as a floating-point value.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the support is not contained in `vars`.
    pub fn sat_count_over(&self, vars: &[VarId]) -> f64 {
        let inner = self.mgr.borrow();
        let a = self.raw(&inner);
        inner.sat_count_over(a, vars)
    }

    /// Exact number of satisfying assignments over `vars` (universe of at
    /// most 127 variables).
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() > 127`; in debug builds also panics when the
    /// support is not contained in `vars`.
    pub fn sat_count_exact(&self, vars: &[VarId]) -> u128 {
        let inner = self.mgr.borrow();
        let a = self.raw(&inner);
        inner.sat_count_exact(a, vars)
    }

    /// Returns the smallest satisfying assignment over `vars` in the
    /// order of `vars`, false before true (variables outside `vars` are
    /// quantified away), or `None` if the function is unsatisfiable. The
    /// pick depends on the function and `vars` alone, never on the
    /// variable order or the manager's history.
    pub fn pick_minterm(&self, vars: &[VarId]) -> Option<Vec<(VarId, bool)>> {
        let mut inner = self.mgr.borrow_mut();
        let a = self.raw(&inner);
        inner.pick_minterm(a, vars)
    }

    /// Iterates over the full minterms with respect to the variable
    /// universe `vars` (each item is aligned with `vars`).
    ///
    /// The iterator holds a clone of the handle, so the traversal is
    /// safe across garbage collection (its interior nodes stay reachable
    /// from the pinned root). Reordering between `next()` calls is NOT
    /// safe — the iterator walks saved interior cursors and a level order
    /// captured at creation time — so collect first if you need to.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the support is not contained in `vars`.
    pub fn minterms_over(&self, vars: &[VarId]) -> Minterms {
        let inner = self.mgr.borrow();
        let start = self.raw(&inner);
        debug_assert!(
            {
                let sup = inner.support(start);
                let set: std::collections::HashSet<VarId> = vars.iter().copied().collect();
                sup.iter().all(|v| set.contains(v))
            },
            "support must be within the minterm universe"
        );
        let mut ordered: Vec<VarId> = vars.to_vec();
        ordered.sort_by_key(|&v| inner.level_of(v));
        drop(inner);
        Minterms {
            _pin: self.clone(),
            vars: ordered,
            out_order: vars.to_vec(),
            stack: if start.is_false() {
                vec![]
            } else {
                vec![(start, 0, Vec::new())]
            },
        }
    }
}

impl Clone for Func {
    fn clone(&self) -> Self {
        if self.slot != SLOT_FALSE && self.slot != SLOT_TRUE {
            self.mgr.borrow_mut().ext_inc(self.slot);
        }
        Func {
            mgr: self.mgr.clone(),
            slot: self.slot,
        }
    }
}

impl Drop for Func {
    fn drop(&mut self) {
        if self.slot == SLOT_FALSE || self.slot == SLOT_TRUE {
            return;
        }
        // A failed borrow can only happen while unwinding out of a
        // manager operation; leaking one root slot is the safe choice.
        if let Ok(mut inner) = self.mgr.try_borrow_mut() {
            inner.ext_dec(self.slot);
        }
    }
}

impl PartialEq for Func {
    fn eq(&self, other: &Self) -> bool {
        if !Rc::ptr_eq(&self.mgr, &other.mgr) {
            return false;
        }
        let inner = self.mgr.borrow();
        self.raw(&inner) == other.raw(&inner)
    }
}

impl Eq for Func {}

impl std::hash::Hash for Func {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let inner = self.mgr.borrow();
        self.raw(&inner).hash(state);
    }
}

impl std::fmt::Debug for Func {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.mgr.borrow();
        write!(f, "Func({})", self.raw(&inner))
    }
}

impl std::ops::Not for &Func {
    type Output = Func;
    fn not(self) -> Func {
        Func::not(self)
    }
}

impl std::ops::Not for Func {
    type Output = Func;
    fn not(self) -> Func {
        Func::not(&self)
    }
}

macro_rules! func_binop {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl std::ops::$trait for &Func {
            type Output = Func;
            fn $method(self, rhs: &Func) -> Func {
                Func::$impl_method(self, rhs)
            }
        }
        impl std::ops::$trait for Func {
            type Output = Func;
            fn $method(self, rhs: Func) -> Func {
                Func::$impl_method(&self, &rhs)
            }
        }
    };
}

func_binop!(BitAnd, bitand, and);
func_binop!(BitOr, bitor, or);
func_binop!(BitXor, bitxor, xor);

/// Iterator over full minterms; see [`Func::minterms_over`].
#[derive(Debug)]
pub struct Minterms {
    /// Keeps the traversed function rooted for the iterator's lifetime.
    _pin: Func,
    /// Universe ordered by level at creation time.
    vars: Vec<VarId>,
    /// Universe in caller order, used for the output layout.
    out_order: Vec<VarId>,
    /// (node, index into `vars`, values chosen so far — parallel to `vars`).
    stack: Vec<(Ref, usize, Vec<bool>)>,
}

impl Iterator for Minterms {
    type Item = Vec<(VarId, bool)>;

    fn next(&mut self) -> Option<Self::Item> {
        let inner = self._pin.mgr.borrow();
        while let Some((r, idx, values)) = self.stack.pop() {
            if r.is_false() {
                continue;
            }
            if idx == self.vars.len() {
                debug_assert!(r.is_true());
                let map: std::collections::HashMap<VarId, bool> = self
                    .vars
                    .iter()
                    .copied()
                    .zip(values.iter().copied())
                    .collect();
                return Some(self.out_order.iter().map(|&v| (v, map[&v])).collect());
            }
            let v = self.vars[idx];
            let node_level = inner.level(r);
            let var_level = inner.level_of(v);
            if !r.is_const() && node_level == var_level {
                let n = inner.node(r);
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
    fn clone_and_drop_track_root_slots() {
        let mgr = BddManager::new();
        let x = mgr.new_var();
        let fx = mgr.var(x);
        assert_eq!(mgr.live_roots(), 1);
        let fx2 = fx.clone();
        assert_eq!(mgr.live_roots(), 1, "clones share a slot");
        let nx = fx.not();
        assert_eq!(mgr.live_roots(), 2);
        drop(fx);
        assert_eq!(mgr.live_roots(), 2, "clone still pins the slot");
        drop(fx2);
        assert_eq!(mgr.live_roots(), 1);
        drop(nx);
        assert_eq!(mgr.live_roots(), 0);
    }

    #[test]
    fn constants_are_virtual_roots() {
        let mgr = BddManager::new();
        let t = mgr.constant(true);
        let f = mgr.constant(false);
        assert_eq!(mgr.live_roots(), 0);
        assert!(t.is_true() && f.is_false());
        assert_eq!(t.clone(), t);
        assert_ne!(t, f);
    }

    #[test]
    fn gc_without_roots_frees_everything() {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(6);
        {
            let lits: Vec<Func> = vars.iter().map(|&v| mgr.var(v)).collect();
            let _f = mgr.and_many(&lits);
            assert!(mgr.live_nodes() > 2);
        }
        mgr.gc();
        assert_eq!(mgr.live_nodes(), 2, "terminal-only baseline");
    }

    #[test]
    fn live_handles_survive_gc_and_reorder() {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(6);
        let lits: Vec<Func> = vars.iter().map(|&v| mgr.var(v)).collect();
        let mut f = mgr.constant(false);
        for pair in lits.chunks(2) {
            f = f.or(&pair[0].and(&pair[1]));
        }
        let truth: Vec<bool> = (0..64u32)
            .map(|bits| f.eval(&|v| bits >> v.index() & 1 == 1))
            .collect();
        mgr.gc();
        mgr.reduce_heap();
        let after: Vec<bool> = (0..64u32)
            .map(|bits| f.eval(&|v| bits >> v.index() & 1 == 1))
            .collect();
        assert_eq!(truth, after);
    }

    #[test]
    fn operator_sugar_matches_methods() {
        let mgr = BddManager::new();
        let x = mgr.new_var();
        let y = mgr.new_var();
        let (fx, fy) = (mgr.var(x), mgr.var(y));
        assert_eq!(&fx & &fy, fx.and(&fy));
        assert_eq!(&fx | &fy, fx.or(&fy));
        assert_eq!(&fx ^ &fy, fx.xor(&fy));
        assert_eq!(!&fx, fx.not());
        assert_eq!(fx.clone() & fy.clone(), fx.and(&fy));
    }

    #[test]
    fn cubes_and_minterms_are_lazy_and_rooted() {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(3);
        let f = mgr.var(vars[0]).or(&mgr.var(vars[2]).not());
        let count = f.minterms_over(&vars).count() as u128;
        assert_eq!(count, f.sat_count_exact(&vars));
        assert_eq!(mgr.constant(true).minterms_over(&vars).count(), 8);
        assert_eq!(mgr.constant(false).minterms_over(&vars).count(), 0);
    }

    #[test]
    fn funcs_from_different_managers_are_unequal() {
        let m1 = BddManager::new();
        let m2 = BddManager::new();
        let x1 = m1.var(m1.new_var());
        let x2 = m2.var(m2.new_var());
        assert_ne!(x1, x2);
    }
}
