//! The internal BDD engine: packed node arena, open-addressing unique
//! tables, direct-mapped compute caches, external-root table and core
//! operations.
//!
//! [`Inner`] is the crate-private substrate behind the public
//! [`crate::BddManager`] / [`crate::Func`] handle API. It works in terms
//! of raw [`Ref`] indices; nothing outside this crate ever sees a `Ref`.
//!
//! Nodes live in one contiguous arena of 16-byte [`PackedNode`] entries
//! indexed by `u32`. Free slots are threaded into an intrusive free list
//! through their `aux` word (flagged by `var == FREE_VAR`); on live
//! nodes `aux` carries the GC mark. Hash-consing goes through one
//! open-addressing [`UniqueTable`] per variable, and all operation memos
//! are direct-mapped caches sized with the arena (see `table.rs` for why
//! lossiness is sound).

use crate::node::{Node, PackedNode, Ref, VarId, FREE_VAR, NIL_SLOT, TERMINAL_VAR};
use crate::table::{IteCache, PairCache, UnaryCache, UniqueTable};

/// Live-node count below which [`Inner::gc_checkpoint`] never collects.
const GC_FLOOR: usize = 4096;

/// Growth factor over the live-node count the last collection left
/// behind that arms [`Inner::gc_checkpoint`].
const GC_GROWTH: usize = 2;

/// One slot of the external-root table: a pinned node handle plus the
/// number of live [`crate::Func`] clones pointing at it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExtSlot {
    pub(crate) r: Ref,
    pub(crate) rc: u32,
}

/// The BDD engine state shared behind a [`crate::BddManager`].
///
/// All nodes live in a single arena; functions are denoted by [`Ref`]
/// handles. Nodes are hash-consed through a unique table, so structural
/// equality of `Ref`s coincides with semantic equality of the Boolean
/// functions they denote.
///
/// External ownership is tracked by the *root table* (`ext`): every live
/// [`crate::Func`] owns one reference count on one slot. Garbage
/// collection and dynamic reordering treat the root table as the complete
/// external live set — there is no caller-supplied roots parameter on the
/// public API.
#[derive(Debug, Clone)]
pub(crate) struct Inner {
    /// The packed node arena; slots 0 and 1 are the terminals.
    pub(crate) nodes: Vec<PackedNode>,
    /// Level-organized unique table: `unique[var]` hash-conses the nodes
    /// labelled `var`, keyed by their `(lo, hi)` cofactors. Keeping one
    /// subtable per variable lets dynamic reordering move a whole level
    /// without touching the rest of the table.
    pub(crate) unique: Vec<UniqueTable>,
    pub(crate) ite_cache: IteCache,
    pub(crate) var2level: Vec<u32>,
    pub(crate) level2var: Vec<u32>,
    var_names: Vec<Option<String>>,
    /// Head of the intrusive free list threaded through the `aux` words
    /// of freed arena slots (`NIL_SLOT` when empty).
    pub(crate) free_head: u32,
    /// Free-list length, kept so `live_nodes` stays O(1).
    pub(crate) free_len: u32,
    /// Variable groups kept adjacent by reordering (e.g. a state bit's
    /// current/next pair); see [`Inner::group_vars`].
    pub(crate) groups: Vec<Vec<u32>>,
    /// `var_group[var]` is the index into `groups`, if the variable is
    /// grouped.
    pub(crate) var_group: Vec<Option<u32>>,
    /// Live nodes the last collection left behind (see
    /// [`Inner::gc_checkpoint`]).
    live_after_gc: usize,
    /// External-root table: slab of `(Ref, refcount)` slots owned by
    /// [`crate::Func`] handles. Slot allocation/release is O(1) via the
    /// free list, regardless of how many roots are live.
    pub(crate) ext: Vec<ExtSlot>,
    pub(crate) ext_free: Vec<u32>,
    // Generation-tagged caches shared by the unary traversals
    // (quantification, cofactor, substitution) and the fused relational
    // product; a tag bump replaces the old per-call memo clear.
    pub(crate) quant_cache: UnaryCache,
    pub(crate) pair_cache: PairCache,
    /// Arena slot count at which [`Inner::fit_caches`] next resizes a
    /// compute cache (`usize::MAX` once all are at their caps).
    cache_refit_at: usize,
    pub(crate) mask_scratch: Vec<bool>,
    /// Var-indexed substitution scratch for the renaming core
    /// (`NIL_REF` = identity), reused across calls.
    pub(crate) subst_scratch: Vec<Ref>,
    /// Deterministic engine counters (see [`crate::BddStats`]); bumped
    /// inline on the hot paths, snapshot via [`Inner::stats`].
    pub(crate) stats: crate::stats::BddStats,
}

impl Default for Inner {
    fn default() -> Self {
        Self::new()
    }
}

impl Inner {
    /// Creates an empty engine with no variables.
    pub fn new() -> Self {
        let terminal = PackedNode {
            var: TERMINAL_VAR,
            lo: Ref::FALSE,
            hi: Ref::TRUE,
            aux: 0,
        };
        let mut inner = Inner {
            // Slots 0 and 1 are the terminals; their node contents are
            // sentinels and never looked up through the unique table.
            nodes: vec![terminal, terminal],
            unique: Vec::new(),
            ite_cache: IteCache::new(),
            var2level: Vec::new(),
            level2var: Vec::new(),
            var_names: Vec::new(),
            free_head: NIL_SLOT,
            free_len: 0,
            groups: Vec::new(),
            var_group: Vec::new(),
            live_after_gc: 0,
            ext: Vec::new(),
            ext_free: Vec::new(),
            quant_cache: UnaryCache::new(),
            pair_cache: PairCache::new(),
            cache_refit_at: 0,
            mask_scratch: Vec::new(),
            subst_scratch: Vec::new(),
            stats: crate::stats::BddStats {
                // The two terminals exist from birth: the high-water mark
                // starts at the initial live-node count, not at zero.
                peak_live_nodes: 2,
                ..Default::default()
            },
        };
        inner.fit_caches();
        inner
    }

    /// Snapshot of the deterministic engine counters.
    pub fn stats(&self) -> crate::stats::BddStats {
        self.stats
    }

    /// Zeroes the engine counters. The `peak_live_nodes` high-water mark
    /// restarts at the *current* live-node count — the nodes alive right
    /// now were allocated, so a fresh measurement window still starts
    /// from them, never from zero.
    pub fn reset_stats(&mut self) {
        self.stats = crate::stats::BddStats {
            peak_live_nodes: self.live_nodes() as u64,
            ..Default::default()
        };
    }

    // ---- external-root table ------------------------------------------

    /// Registers `r` in the root table with refcount 1 and returns its
    /// slot. O(1): reuses a free slot or appends.
    pub(crate) fn ext_alloc(&mut self, r: Ref) -> u32 {
        debug_assert!(!r.is_const(), "terminals are never rooted");
        match self.ext_free.pop() {
            Some(slot) => {
                self.ext[slot as usize] = ExtSlot { r, rc: 1 };
                slot
            }
            None => {
                let slot = self.ext.len() as u32;
                self.ext.push(ExtSlot { r, rc: 1 });
                slot
            }
        }
    }

    /// Adds one reference to a root slot (a [`crate::Func`] clone).
    pub(crate) fn ext_inc(&mut self, slot: u32) {
        self.ext[slot as usize].rc += 1;
    }

    /// Drops one reference from a root slot; the slot is recycled when the
    /// count reaches zero. O(1) — no scan over the live roots.
    pub(crate) fn ext_dec(&mut self, slot: u32) {
        let s = &mut self.ext[slot as usize];
        debug_assert!(s.rc > 0, "root table refcount underflow");
        s.rc -= 1;
        if s.rc == 0 {
            self.ext_free.push(slot);
        }
    }

    /// The node a root slot pins.
    pub(crate) fn ext_ref(&self, slot: u32) -> Ref {
        debug_assert!(self.ext[slot as usize].rc > 0, "read of a dead root slot");
        self.ext[slot as usize].r
    }

    /// Number of live root-table slots (distinct pinned handles; clones of
    /// one handle share a slot).
    pub(crate) fn ext_live(&self) -> usize {
        self.ext.len() - self.ext_free.len()
    }

    /// Appends every externally rooted `Ref` (one per live slot) to `out`.
    pub(crate) fn ext_roots_into(&self, out: &mut Vec<Ref>) {
        out.extend(
            self.ext
                .iter()
                .filter(|s| s.rc > 0 && !s.r.is_const())
                .map(|s| s.r),
        );
    }

    // ---- variables ----------------------------------------------------

    /// Creates a fresh variable, ordered after all existing variables.
    pub fn new_var(&mut self) -> VarId {
        let id = self.var2level.len() as u32;
        self.var2level.push(id);
        self.level2var.push(id);
        self.var_names.push(None);
        self.unique.push(UniqueTable::new());
        self.var_group.push(None);
        VarId(id)
    }

    /// Creates `n` fresh variables, ordered after all existing variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<VarId> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Creates a fresh named variable (the name shows up in DOT dumps and
    /// debugging output).
    pub fn new_named_var(&mut self, name: impl Into<String>) -> VarId {
        let v = self.new_var();
        self.var_names[v.index()] = Some(name.into());
        v
    }

    /// Assigns a debug name to a variable.
    pub fn set_var_name(&mut self, var: VarId, name: impl Into<String>) {
        self.var_names[var.index()] = Some(name.into());
    }

    /// Returns the debug name of `var`, if one was assigned.
    pub fn var_name(&self, var: VarId) -> Option<&str> {
        self.var_names[var.index()].as_deref()
    }

    /// Number of variables created on this engine.
    pub fn num_vars(&self) -> usize {
        self.var2level.len()
    }

    /// Total number of allocated (live or freed-but-unreused) node slots,
    /// including the two terminals. This is the "BDD nodes" statistic
    /// reported in the paper's Table 2.
    pub fn table_size(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes (allocated slots minus the free list).
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free_len as usize
    }

    /// Engine memory footprint in bytes: the packed node arena plus
    /// every unique table and compute cache. Used as the peak-RSS proxy
    /// in benchmark reports — it tracks exactly the structures this
    /// module owns, independent of allocator behavior.
    pub fn arena_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<PackedNode>()
            + self.unique.iter().map(UniqueTable::bytes).sum::<usize>()
            + self.ite_cache.bytes()
            + self.quant_cache.bytes()
            + self.pair_cache.bytes()
    }

    /// The level (position in the variable order, `0` = topmost) of `var`.
    pub fn level_of(&self, var: VarId) -> u32 {
        self.var2level[var.index()]
    }

    /// The variable sitting at `level` in the current order.
    pub fn var_at_level(&self, level: u32) -> VarId {
        VarId(self.level2var[level as usize])
    }

    #[inline]
    pub(crate) fn node(&self, r: Ref) -> Node {
        let p = self.nodes[r.index()];
        debug_assert_ne!(p.var, FREE_VAR, "read of a freed node slot");
        Node {
            var: p.var,
            lo: p.lo,
            hi: p.hi,
        }
    }

    /// Pops a free slot (or appends) and writes the node; free-list
    /// links live in the `aux` words of the freed slots themselves.
    #[inline]
    pub(crate) fn alloc_node(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        let entry = PackedNode {
            var,
            lo,
            hi,
            aux: 0,
        };
        if self.free_head != NIL_SLOT {
            let slot = self.free_head;
            self.free_head = self.nodes[slot as usize].aux;
            self.free_len -= 1;
            self.nodes[slot as usize] = entry;
            Ref(slot)
        } else {
            let slot = self.nodes.len() as u32;
            assert!(slot < FREE_VAR, "BDD arena exhausted the u32 slot space");
            self.nodes.push(entry);
            if self.nodes.len() >= self.cache_refit_at {
                self.fit_caches();
            }
            Ref(slot)
        }
    }

    /// Sizes the compute caches for the arena's current slot count and
    /// records the count at which they next change. Out of line and cold:
    /// the arena only grows, so this runs once per power of two until
    /// every cache reaches its cap.
    #[cold]
    #[inline(never)]
    fn fit_caches(&mut self) {
        let slots = self.nodes.len();
        self.cache_refit_at = self
            .ite_cache
            .fit(slots)
            .min(self.quant_cache.fit(slots))
            .min(self.pair_cache.fit(slots));
    }

    /// Entries of the ITE, quantification and relational-product caches,
    /// allocated or not.
    pub fn cache_entries(&self) -> [usize; 3] {
        [
            self.ite_cache.entries(),
            self.quant_cache.entries(),
            self.pair_cache.entries(),
        ]
    }

    /// Returns a slot to the free list (flagged by `var == FREE_VAR`,
    /// next link in `aux`). The caller must already have unlinked the
    /// node from its unique table.
    #[inline]
    pub(crate) fn free_node(&mut self, slot: u32) {
        let n = &mut self.nodes[slot as usize];
        debug_assert_ne!(n.var, FREE_VAR, "double free of an arena slot");
        n.var = FREE_VAR;
        n.aux = self.free_head;
        self.free_head = slot;
        self.free_len += 1;
    }

    /// Level of the topmost variable of `r`; terminals get `u32::MAX`.
    #[inline]
    pub(crate) fn level(&self, r: Ref) -> u32 {
        if r.is_const() {
            u32::MAX
        } else {
            self.var2level[self.nodes[r.index()].var as usize]
        }
    }

    /// The variable labelling the root node of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is a terminal.
    pub fn root_var(&self, r: Ref) -> VarId {
        assert!(!r.is_const(), "terminals have no root variable");
        VarId(self.nodes[r.index()].var)
    }

    /// The `(lo, hi)` cofactors of the root node of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is a terminal.
    pub fn children(&self, r: Ref) -> (Ref, Ref) {
        assert!(!r.is_const(), "terminals have no children");
        let n = self.nodes[r.index()];
        (n.lo, n.hi)
    }

    /// Hash-consed node constructor; maintains the ROBDD invariants.
    pub(crate) fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            self.var2level[var as usize] < self.level(lo)
                && self.var2level[var as usize] < self.level(hi),
            "ordering violation in mk"
        );
        // Reserve before probing so a vacant probe position stays valid
        // for the fill below (allocation never touches the table).
        self.unique[var as usize].reserve(&self.nodes);
        match self.unique[var as usize].probe(&self.nodes, lo, hi) {
            Ok(r) => {
                self.stats.unique_hits += 1;
                r
            }
            Err(pos) => {
                self.stats.unique_misses += 1;
                let r = self.alloc_node(var, lo, hi);
                self.unique[var as usize].fill(pos, r.0);
                self.stats.unique_insertions += 1;
                self.stats.peak_live_nodes =
                    self.stats.peak_live_nodes.max(self.live_nodes() as u64);
                r
            }
        }
    }

    /// The function that is true exactly when `var` is true.
    pub fn var(&mut self, var: VarId) -> Ref {
        self.mk(var.0, Ref::FALSE, Ref::TRUE)
    }

    /// The function that is true exactly when `var` is false.
    pub fn nvar(&mut self, var: VarId) -> Ref {
        self.mk(var.0, Ref::TRUE, Ref::FALSE)
    }

    /// A literal: `var` if `positive`, `!var` otherwise.
    #[cfg_attr(not(test), allow(dead_code))] // devlint: allow(test-only-code)
    pub fn literal(&mut self, var: VarId, positive: bool) -> Ref {
        if positive {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    /// The constant function for `value`.
    #[cfg_attr(not(test), allow(dead_code))] // devlint: allow(test-only-code)
    pub fn constant(&self, value: bool) -> Ref {
        if value {
            Ref::TRUE
        } else {
            Ref::FALSE
        }
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// This is the single primitive from which all binary connectives are
    /// derived; results are memoized in the engine-wide cache.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if let Some(r) = self.ite_cache.lookup(f, g, h) {
            self.stats.ite_hits += 1;
            return r;
        }
        self.stats.ite_misses += 1;
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let var = self.level2var[top as usize];
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(var, lo, hi);
        self.ite_cache.insert(f, g, h, r);
        r
    }

    /// Shannon cofactors of `r` with respect to the variable at `level`
    /// (which must be at or above `r`'s root level).
    #[inline]
    pub(crate) fn cofactors_at(&self, r: Ref, level: u32) -> (Ref, Ref) {
        if self.level(r) == level {
            let n = self.nodes[r.index()];
            (n.lo, n.hi)
        } else {
            (r, r)
        }
    }

    /// Logical negation.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.ite(f, Ref::FALSE, Ref::TRUE)
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::FALSE)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Ref::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Biconditional (xnor).
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::TRUE)
    }

    /// Difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// Conjunction of many operands (true for the empty list).
    pub fn and_many<I: IntoIterator<Item = Ref>>(&mut self, fs: I) -> Ref {
        let mut acc = Ref::TRUE;
        for f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Returns `true` if `f → g` is a tautology (set inclusion).
    pub fn leq(&mut self, f: Ref, g: Ref) -> bool {
        self.implies(f, g).is_true()
    }

    /// Evaluates `f` under a total assignment.
    #[cfg_attr(not(test), allow(dead_code))] // devlint: allow(test-only-code)
    pub fn eval(&self, f: Ref, assignment: &dyn Fn(VarId) -> bool) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.index()];
            cur = if assignment(VarId(n.var)) { n.hi } else { n.lo };
        }
        cur.is_true()
    }

    /// Number of distinct decision nodes reachable from `f` (excluding
    /// terminals). This per-function size is the usual "BDD size" metric.
    pub fn node_count(&self, f: Ref) -> usize {
        self.walk(vec![f], |_| {})
    }

    /// The set of variables appearing in `f`, sorted by index.
    pub fn support(&self, f: Ref) -> Vec<VarId> {
        self.support_many(vec![f])
    }

    /// The set of variables appearing in any of `roots`, sorted by index:
    /// one walk, which visits a node the roots share once.
    pub fn support_many(&self, roots: Vec<Ref>) -> Vec<VarId> {
        let mut seen = vec![false; self.num_vars()];
        self.walk(roots, |var| {
            seen[var as usize] = true;
        });
        seen.iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(v, _)| VarId(v as u32))
            .collect()
    }

    /// Visits the distinct decision nodes reachable from `roots`, handing
    /// each one's variable to `visit`, and returns how many it visited.
    /// Marks visited nodes in a bitmap over the node table: no hashing,
    /// and the manager is only read.
    fn walk(&self, roots: Vec<Ref>, mut visit: impl FnMut(u32)) -> usize {
        let mut marks = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut count = 0;
        let mut stack = roots;
        while let Some(r) = stack.pop() {
            if r.is_const() {
                continue;
            }
            let (word, bit) = (r.index() / 64, 1u64 << (r.index() % 64));
            if marks[word] & bit != 0 {
                continue;
            }
            marks[word] |= bit;
            count += 1;
            let n = self.nodes[r.index()];
            visit(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Garbage-collects every node not reachable from the external-root
    /// table or the `extra` refs (internal pins used by tests and the
    /// reordering machinery).
    ///
    /// Marks live nodes through their `aux` words, sweeps the arena
    /// (dead slots join the intrusive free list), and rebuilds every
    /// unique table from the survivors — a clear-and-reinsert pass is
    /// cheaper and leaves shorter probe chains than per-node
    /// backward-shift removals when many nodes die at once. All
    /// operation caches are dropped: their cached `Ref`s would otherwise
    /// dangle into recycled slots.
    ///
    /// Returns the number of freed node slots.
    pub fn gc(&mut self, extra: &[Ref]) -> usize {
        let mut stack: Vec<Ref> = extra.to_vec();
        self.ext_roots_into(&mut stack);
        while let Some(r) = stack.pop() {
            if r.is_const() {
                continue;
            }
            let n = &mut self.nodes[r.index()];
            if n.aux != 0 {
                continue;
            }
            n.aux = 1;
            let (lo, hi) = (n.lo, n.hi);
            stack.push(lo);
            stack.push(hi);
        }
        for table in &mut self.unique {
            table.clear();
        }
        let mut freed = 0usize;
        for i in 2..self.nodes.len() {
            let n = self.nodes[i];
            if n.var == FREE_VAR {
                continue; // already on the free list
            }
            if n.aux != 0 {
                self.nodes[i].aux = 0;
                self.unique[n.var as usize].insert_fresh(&self.nodes, i as u32);
            } else {
                self.free_node(i as u32);
                freed += 1;
            }
        }
        self.clear_caches();
        self.stats.gc_runs += 1;
        self.stats.gc_nodes_reclaimed += freed as u64;
        self.live_after_gc = self.live_nodes();
        // Deliberately no peak_live_nodes update: a collection shrinks
        // the live set but the high-water mark records how big the
        // manager ever got (see `reset_stats` for the one reset point).
        freed
    }

    /// Growth-triggered collection: runs [`Inner::gc`] when the live-node
    /// count has reached [`GC_GROWTH`] times what the last collection
    /// left behind, and at least [`GC_FLOOR`]. Returns the number of
    /// freed slots when it collected. Every live handle is in the root
    /// table, so this is safe to call at any point.
    pub fn gc_checkpoint(&mut self, extra: &[Ref]) -> Option<usize> {
        let live = self.live_nodes();
        if live < GC_FLOOR.max(self.live_after_gc * GC_GROWTH) {
            return None;
        }
        Some(self.gc(extra))
    }

    /// Drops all memoization caches, including the generation-tagged
    /// quantification caches — after a reorder shuffles levels (or a
    /// collection recycles slots), a stale memoized `Ref` must never be
    /// observable.
    pub fn clear_caches(&mut self) {
        self.ite_cache.clear();
        self.quant_cache.clear();
        self.pair_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Inner, Ref, Ref, Ref) {
        let mut b = Inner::new();
        let x = b.new_var();
        let y = b.new_var();
        let z = b.new_var();
        let (fx, fy, fz) = (b.var(x), b.var(y), b.var(z));
        (b, fx, fy, fz)
    }

    #[test]
    fn constants() {
        let b = Inner::new();
        assert!(b.constant(true).is_true());
        assert!(b.constant(false).is_false());
    }

    #[test]
    fn var_and_negation_are_distinct() {
        let mut b = Inner::new();
        let x = b.new_var();
        let fx = b.var(x);
        let nfx = b.not(fx);
        assert_ne!(fx, nfx);
        let back = b.not(nfx);
        assert_eq!(fx, back);
    }

    #[test]
    fn and_or_basic_identities() {
        let (mut b, fx, fy, _) = setup();
        assert_eq!(b.and(fx, Ref::TRUE), fx);
        assert_eq!(b.and(fx, Ref::FALSE), Ref::FALSE);
        assert_eq!(b.or(fx, Ref::FALSE), fx);
        assert_eq!(b.or(fx, Ref::TRUE), Ref::TRUE);
        let a1 = b.and(fx, fy);
        let a2 = b.and(fy, fx);
        assert_eq!(a1, a2);
    }

    #[test]
    fn de_morgan() {
        let (mut b, fx, fy, _) = setup();
        let land = b.and(fx, fy);
        let n1 = b.not(land);
        let nx = b.not(fx);
        let ny = b.not(fy);
        let n2 = b.or(nx, ny);
        assert_eq!(n1, n2);
    }

    #[test]
    fn xor_iff_duality() {
        let (mut b, fx, fy, _) = setup();
        let x1 = b.xor(fx, fy);
        let i1 = b.iff(fx, fy);
        let ni1 = b.not(i1);
        assert_eq!(x1, ni1);
    }

    #[test]
    fn ite_is_shannon_expansion() {
        let (mut b, fx, fy, fz) = setup();
        let f = b.ite(fx, fy, fz);
        // f = (x ∧ y) ∨ (¬x ∧ z)
        let xy = b.and(fx, fy);
        let nx = b.not(fx);
        let nxz = b.and(nx, fz);
        let expect = b.or(xy, nxz);
        assert_eq!(f, expect);
    }

    #[test]
    fn leq_checks_inclusion() {
        let (mut b, fx, fy, _) = setup();
        let conj = b.and(fx, fy);
        assert!(b.leq(conj, fx));
        assert!(!b.leq(fx, conj));
    }

    #[test]
    fn eval_follows_assignment() {
        let (mut b, fx, fy, _) = setup();
        let f = b.and(fx, fy);
        assert!(b.eval(f, &|v| v.index() <= 1));
        assert!(!b.eval(f, &|v| v.index() == 0));
    }

    #[test]
    fn node_count_of_conjunction_chain() {
        let mut b = Inner::new();
        let vars = b.new_vars(8);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let f = b.and_many(lits);
        assert_eq!(b.node_count(f), 8);
    }

    #[test]
    fn support_reports_used_vars() {
        let (mut b, fx, _, fz) = setup();
        let f = b.and(fx, fz);
        let s = b.support(f);
        assert_eq!(s, vec![VarId(0), VarId(2)]);
        // The union over several roots, constants included.
        let g = b.or(fx, fz);
        assert_eq!(b.support_many(vec![fx, g, Ref::TRUE]), s);
        assert_eq!(b.support_many(vec![]), Vec::<VarId>::new());
    }

    #[test]
    fn gc_frees_dead_nodes_and_keeps_roots() {
        let mut b = Inner::new();
        let vars = b.new_vars(6);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let keep = b.and(lits[0], lits[1]);
        let _dead = b.and_many(lits.clone());
        let live_before = b.live_nodes();
        let freed = b.gc(&[keep]);
        assert!(freed > 0);
        assert_eq!(b.live_nodes(), live_before - freed);
        // The kept function still evaluates correctly.
        assert!(b.eval(keep, &|v| v.index() < 2));
        // Rebuilding the same function (from fresh literals — the old
        // literal refs above may have been collected) reuses the live
        // nodes: hash-consing returns the identical root.
        let l0 = b.var(vars[0]);
        let l1 = b.var(vars[1]);
        let again = b.and(l0, l1);
        assert_eq!(again, keep);
    }

    #[test]
    fn gc_then_alloc_reuses_slots() {
        let mut b = Inner::new();
        let vars = b.new_vars(4);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let dead = b.and_many(lits.clone());
        let size_before = b.table_size();
        b.gc(&[lits[0], lits[1], lits[2], lits[3]]);
        // Build something new; table should not grow past its previous size
        // until the free list is exhausted.
        let _f = b.or(lits[0], lits[1]);
        assert!(b.table_size() <= size_before);
        let _ = dead; // dead ref must not be dereferenced after gc
    }

    #[test]
    fn gc_treats_root_table_as_live() {
        let mut b = Inner::new();
        let vars = b.new_vars(4);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let keep = b.and(lits[0], lits[1]);
        let slot = b.ext_alloc(keep);
        let _dead = b.and(lits[2], lits[3]);
        b.gc(&[]);
        assert!(b.eval(keep, &|v| v.index() < 2));
        // Releasing the slot makes the node collectable.
        b.ext_dec(slot);
        b.gc(&[]);
        assert_eq!(b.live_nodes(), 2, "only terminals survive");
    }

    #[test]
    fn ext_slots_are_recycled_in_o1() {
        let mut b = Inner::new();
        let x = b.new_var();
        let fx = b.var(x);
        let s0 = b.ext_alloc(fx);
        let s1 = b.ext_alloc(fx);
        assert_ne!(s0, s1, "clones of distinct handles get distinct slots");
        b.ext_inc(s0);
        b.ext_dec(s0);
        assert_eq!(b.ext_live(), 2);
        b.ext_dec(s0);
        assert_eq!(b.ext_live(), 1);
        // The freed slot is reused by the next registration.
        let s2 = b.ext_alloc(fx);
        assert_eq!(s2, s0);
    }

    #[test]
    fn gc_clears_quantification_scratch() {
        let mut b = Inner::new();
        let vars = b.new_vars(3);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let f = b.and(lits[0], lits[1]);
        let _e = b.exists(f, &[vars[0]]);
        let _ae = b.and_exists(f, lits[2], &[vars[1]]);
        assert!(b.quant_cache.occupied() > 0 || b.pair_cache.occupied() > 0);
        b.gc(&[f]);
        assert_eq!(b.quant_cache.occupied(), 0);
        assert_eq!(b.pair_cache.occupied(), 0);
        b.clear_caches();
        assert_eq!(b.ite_cache.occupied(), 0);
    }

    #[test]
    fn free_list_is_intrusive_and_o1() {
        let mut b = Inner::new();
        let vars = b.new_vars(4);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let dead = b.and_many(lits.clone());
        let size_before = b.table_size();
        let freed = b.gc(&lits);
        assert!(freed > 0);
        assert_eq!(b.live_nodes(), size_before - freed);
        // Freed slots are flagged and chained through their aux words.
        let mut chained = 0usize;
        let mut cursor = b.free_head;
        while cursor != crate::node::NIL_SLOT {
            assert_eq!(b.nodes[cursor as usize].var, crate::node::FREE_VAR);
            cursor = b.nodes[cursor as usize].aux;
            chained += 1;
        }
        assert_eq!(chained, freed);
        assert_eq!(chained, b.free_len as usize);
        // Reallocation reuses the chained slots before growing the arena.
        let again = b.and(lits[0], lits[1]);
        assert!(b.table_size() <= size_before);
        let _ = (dead, again);
    }

    /// The caches follow the arena: 2^10 entries on a fresh engine, 2^11
    /// once the arena reaches 1,024 slots, and no shrinking when a
    /// collection empties it again.
    #[test]
    fn caches_are_refit_as_the_arena_grows() {
        let mut b = Inner::new();
        assert_eq!(b.cache_entries(), [1 << 10; 3]);
        let vars = b.new_vars(12);
        let lits: Vec<Ref> = vars.iter().map(|&v| b.var(v)).collect();
        let mut cube = 0u32;
        while b.table_size() < 1024 {
            assert_eq!(b.cache_entries(), [1 << 10; 3]);
            let mut c = Ref::TRUE;
            for (i, &l) in lits.iter().enumerate() {
                let lit = if cube >> i & 1 == 1 { l } else { b.not(l) };
                c = b.and(c, lit);
            }
            cube += 1;
        }
        assert_eq!(b.cache_entries(), [1 << 11; 3]);
        b.gc(&lits);
        assert_eq!(b.cache_entries(), [1 << 11; 3]);
    }

    #[test]
    fn and_many_empty() {
        let mut b = Inner::new();
        assert!(b.and_many([]).is_true());
    }

    #[test]
    fn named_vars() {
        let mut b = Inner::new();
        let v = b.new_named_var("clk");
        assert_eq!(b.var_name(v), Some("clk"));
        let w = b.new_var();
        assert_eq!(b.var_name(w), None);
        b.set_var_name(w, "rst");
        assert_eq!(b.var_name(w), Some("rst"));
    }
}
