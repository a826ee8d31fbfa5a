//! Dynamic variable reordering: in-place adjacent-level swaps and
//! Rudell-style sifting with variable groups.
//!
//! # Safety model
//!
//! The live set of [`crate::BddManager::reduce_heap`] is the manager's
//! external-root table: every [`crate::Func`] handle owns a root slot, so
//! the table is the complete set of externally reachable functions by
//! construction. Reordering first collects everything unreachable from
//! the roots, then sifts, freeing nodes the moment swaps orphan them
//! (tracked with transient reference counts) so the table never balloons
//! mid-sift. Rooted handles keep their slots — the swap primitive
//! rewrites nodes *in place*, label and cofactors rebuilt for the new
//! order — and therefore every `Func` stays valid and denotes the same
//! function across any number of reorderings.
//!
//! With no live roots, sifting is a no-op (it needs a live set to
//! measure). [`crate::BddManager::set_order`], by contrast, pins every
//! allocated node (applying a permutation needs no metric).
//!
//! Internally the entry points take an `extra` pin list on top of the
//! root table; it is used by in-crate tests and is always empty on the
//! public paths.
//!
//! # Groups
//!
//! [`crate::BddManager::group_vars`] declares a run of adjacent variables
//! that must stay adjacent — the FSM layer groups each state bit's
//! (current, next) pair, the standard requirement for transition-relation
//! orders. Sifting moves a group as one block and never reorders within
//! it.

use crate::manager::Inner;
use crate::node::{PackedNode, Ref, VarId, FREE_VAR};

/// The reordering mode. There is one: [`crate::BddManager::reduce_heap`]
/// always sifts.
///
/// Kept only for the `perfbench` harness, which names
/// `ReorderMode::Sift`; nothing under `crates/` reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderMode {
    /// The one mode.
    #[default]
    Sift,
}

/// Kept only for the `perfbench` harness, which hands one to
/// [`crate::BddManager::set_reorder_config`]; nothing under `crates/`
/// reads it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReorderConfig {
    /// Nothing reads it.
    pub mode: ReorderMode,
}

/// Growth bound of a sift direction (Rudell's maxGrowth, ICCAD'93): the
/// direction ends on the first move that takes the live size past this
/// factor times the best size seen for the block. It is relative to the
/// whole heap, so on a flat heap of thousands of nodes, where one block
/// moves a few nodes at a time, it rarely fires; [`MAX_STALE_MOVES`] is
/// the bound that does.
const MAX_GROWTH: f64 = 1.2;

/// Run bound of a sift direction: the direction ends after this many
/// consecutive moves into positions the block has not visited that do
/// not beat its best size. Measured on `covest check`'s startup sift
/// against the unbounded pass (swaps, then live nodes after the pass):
/// the 105-bit cone of `pipeline_d100` went from 75,336 to 6,732 swaps
/// and from 2,492 to 2,495 nodes, the full `pipeline_d160` deck from
/// 818,896 to 21,040 swaps and from 5,565 to 5,648 nodes, and the full
/// `priority_buffer` deck from 1,324 to 864 swaps and from 775 to 773
/// nodes.
const MAX_STALE_MOVES: usize = 4;

/// What a reordering accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReorderStats {
    /// Live nodes (reachable from the roots) before sifting.
    pub before: usize,
    /// Live nodes after sifting.
    pub after: usize,
    /// Adjacent-level swaps performed.
    pub swaps: usize,
    /// Blocks (groups or single variables) sifted.
    pub blocks_sifted: usize,
}

impl ReorderStats {
    /// Fractional size reduction in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.before == 0 {
            0.0
        } else {
            1.0 - self.after as f64 / self.before as f64
        }
    }
}

/// What sifting one block has seen: the best live size and the position
/// where it was reached, and the current direction's run of moves into
/// new positions that did not beat it.
struct SiftProbe {
    best: u64,
    best_pos: usize,
    stale: usize,
}

impl SiftProbe {
    /// Records the live `size` after a move to `pos` and says whether the
    /// direction ends there. A move back into a position the block has
    /// visited (`fresh` false) re-measures a known size, so it never
    /// counts towards [`MAX_STALE_MOVES`]. The growth bound checks every
    /// move, yet on the way up it can only fire above the best position:
    /// the positions retraced below it were measured after the best was
    /// found and did not end the down pass, so they lie within
    /// [`MAX_GROWTH`] of it.
    fn stop_after(&mut self, pos: usize, size: u64, fresh: bool) -> bool {
        if size < self.best {
            self.best = size;
            self.best_pos = pos;
            self.stale = 0;
            return false;
        }
        if fresh {
            self.stale += 1;
        }
        size as f64 > self.best as f64 * MAX_GROWTH || self.stale >= MAX_STALE_MOVES
    }
}

/// Transient bookkeeping for one reordering: per-slot reference counts
/// (parent edges plus root pins) driving eager reclamation of nodes the
/// swaps orphan.
struct ReorderCtx {
    rc: Vec<u32>,
    swaps: usize,
    /// Scratch buffer for the nodes a swap rewrites, reused across all
    /// swaps of one reordering so the hot loop never allocates.
    moved: Vec<Ref>,
    /// Scratch for the level's survivors, feeding the batch-rebuild
    /// unlink path of [`Inner::swap_levels`].
    kept: Vec<u32>,
}

impl Inner {
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
    pub fn group_vars(&mut self, vars: &[VarId]) {
        assert!(
            vars.len() >= 2,
            "a reorder group needs at least two variables"
        );
        let mut levels: Vec<u32> = vars.iter().map(|&v| self.var2level[v.index()]).collect();
        levels.sort_unstable();
        assert!(
            levels.windows(2).all(|w| w[1] == w[0] + 1),
            "reorder group variables must occupy adjacent levels"
        );
        for &v in vars {
            assert!(
                self.var_group[v.index()].is_none(),
                "variable {v} is already in a reorder group"
            );
        }
        let gid = self.groups.len() as u32;
        let mut members: Vec<u32> = vars.iter().map(|&v| v.0).collect();
        members.sort_unstable_by_key(|&v| self.var2level[v as usize]);
        for &v in &members {
            self.var_group[v as usize] = Some(gid);
        }
        self.groups.push(members);
    }

    /// The reorder group containing `var`, in level order, if any.
    pub fn group_of(&self, var: VarId) -> Option<Vec<VarId>> {
        let gid = self.var_group[var.index()]?;
        Some(
            self.groups[gid as usize]
                .iter()
                .map(|&v| VarId(v))
                .collect(),
        )
    }

    /// The complete current variable order, topmost level first.
    pub fn current_order(&self) -> Vec<VarId> {
        self.level2var.iter().map(|&v| VarId(v)).collect()
    }

    /// Sifts variables to shrink the BDDs reachable from the external-root
    /// table plus the `extra` pins (in-crate tests only; empty on the
    /// public path).
    ///
    /// Everything unreachable from that live set is collected before and
    /// during the sift. Rooted handles keep their slots and their
    /// meanings. With no live roots at all this is a no-op (sifting has
    /// no live set to measure).
    ///
    /// All persistent operation caches are invalidated.
    pub fn reduce_heap(&mut self, extra: &[Ref]) -> ReorderStats {
        if extra.is_empty() && self.ext_live() == 0 {
            return ReorderStats::default();
        }
        self.clear_caches();
        let mut ctx = self.rooted_ctx(extra);
        let before = self.live_nodes() - 2;
        let blocks_sifted = self.sift_all(&mut ctx);
        let after = self.live_nodes() - 2;
        self.compact_tables();
        debug_assert!(self.check_reorder_invariants(&ctx));
        self.stats.reorder_invocations += 1;
        self.stats.reorder_swaps += ctx.swaps as u64;
        self.stats.reorder_size_before += before as u64;
        self.stats.reorder_size_after += after as u64;
        ReorderStats {
            before,
            after,
            swaps: ctx.swaps,
            blocks_sifted,
        }
    }

    /// Collects against `extra` ∪ root table and builds the refcount
    /// context pinning that combined live set.
    fn rooted_ctx(&mut self, extra: &[Ref]) -> ReorderCtx {
        let mut pinned = extra.to_vec();
        self.ext_roots_into(&mut pinned);
        self.gc(extra);
        self.reorder_ctx(&pinned)
    }

    // ---- refcount bookkeeping -----------------------------------------

    /// Live decision nodes (terminals excluded) — the metric sifting
    /// minimizes. O(1): slots minus the free list.
    fn live_size(&self) -> u64 {
        (self.live_nodes() - 2) as u64
    }

    /// Builds reference counts: one per parent edge in the table, plus one
    /// pin per root occurrence (or a pin on every allocated slot when
    /// `roots` is empty). Callers run [`Inner::gc`] first when using
    /// explicit roots, so the table holds exactly the reachable nodes.
    fn reorder_ctx(&self, roots: &[Ref]) -> ReorderCtx {
        let mut rc = vec![0u32; self.nodes.len()];
        for slot in 2..self.nodes.len() as u32 {
            let n = self.nodes[slot as usize];
            if n.var == FREE_VAR {
                continue;
            }
            if roots.is_empty() {
                rc[slot as usize] += 1; // pin-all mode
            }
            for child in [n.lo, n.hi] {
                if !child.is_const() {
                    rc[child.index()] += 1;
                }
            }
        }
        for &r in roots {
            if !r.is_const() {
                rc[r.index()] += 1;
            }
        }
        ReorderCtx {
            rc,
            swaps: 0,
            moved: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// `rc -= 1`; a node that loses its last reference is reclaimed on the
    /// spot — removed from the unique table, its slot recycled, its child
    /// edges released (cascading).
    fn dec_ref(&mut self, r: Ref, ctx: &mut ReorderCtx) {
        if r.is_const() {
            return;
        }
        debug_assert!(ctx.rc[r.index()] > 0, "refcount underflow in reorder");
        ctx.rc[r.index()] -= 1;
        if ctx.rc[r.index()] == 0 {
            let n = self.nodes[r.index()];
            // Unlink from the unique table (the node is still intact, so
            // the probe can compare its key), then recycle the slot.
            let removed = self.unique[n.var as usize].remove(&self.nodes, n.lo, n.hi);
            debug_assert!(removed, "reclaimed node was not in its unique table");
            self.free_node(r.0);
            self.dec_ref(n.lo, ctx);
            self.dec_ref(n.hi, ctx);
        }
    }

    /// Hash-consed constructor used during swaps; returns the node with
    /// one reference added for the caller's new edge.
    fn reorder_mk(&mut self, var: u32, lo: Ref, hi: Ref, ctx: &mut ReorderCtx) -> Ref {
        if lo == hi {
            if !lo.is_const() {
                ctx.rc[lo.index()] += 1;
            }
            return lo;
        }
        self.unique[var as usize].reserve(&self.nodes);
        let pos = match self.unique[var as usize].probe(&self.nodes, lo, hi) {
            Ok(r) => {
                ctx.rc[r.index()] += 1;
                return r;
            }
            Err(pos) => pos,
        };
        let r = self.alloc_node(var, lo, hi);
        if r.index() == ctx.rc.len() {
            ctx.rc.push(0); // arena grew: track the new slot
        }
        self.unique[var as usize].fill(pos, r.0);
        ctx.rc[r.index()] = 1;
        if !lo.is_const() {
            ctx.rc[lo.index()] += 1;
        }
        if !hi.is_const() {
            ctx.rc[hi.index()] += 1;
        }
        r
    }

    // ---- the swap primitive -------------------------------------------

    /// Swaps the variables at `level` and `level + 1`, rewriting the
    /// affected upper-level nodes in place so no handle is invalidated.
    fn swap_levels(&mut self, level: u32, ctx: &mut ReorderCtx) {
        let xv = self.level2var[level as usize];
        let yv = self.level2var[level as usize + 1];
        // Nodes labelled x that depend on y must be rewritten; the rest of
        // x's level just sinks one level with no structural change. The
        // open-addressed table yields them in deterministic slot order,
        // into buffers reused across every swap of this reordering.
        let nodes = &self.nodes;
        let mut moved = std::mem::take(&mut ctx.moved);
        moved.clear();
        moved.extend(self.unique[xv as usize].iter_refs().filter(|&r| {
            let n = nodes[r.index()];
            nodes[n.lo.index()].var == yv || nodes[n.hi.index()].var == yv
        }));
        // Unlink the movers. When most of the level moves at once — the
        // common case while `set_order` drags a variable across the
        // order, where every node of the passing level tends to depend
        // on its new neighbour — one capacity-preserving memset plus a
        // reinsertion per survivor beats per-node backward-shift
        // deletion, whose cost is a hash and a probe-chain walk per
        // removal. The survivors are collected in a second scan only on
        // this path, so the common small-move swap pays nothing extra.
        let table_cap = self.unique[xv as usize].capacity();
        if moved.len() >= 32 && moved.len() * 4 >= table_cap {
            let mut kept = std::mem::take(&mut ctx.kept);
            kept.clear();
            kept.extend(
                self.unique[xv as usize]
                    .iter_refs()
                    .filter(|&r| {
                        let n = nodes[r.index()];
                        nodes[n.lo.index()].var != yv && nodes[n.hi.index()].var != yv
                    })
                    .map(|r| r.0),
            );
            self.unique[xv as usize].rebuild(&self.nodes, &kept);
            ctx.kept = kept;
        } else {
            for &r in &moved {
                let n = self.nodes[r.index()];
                let removed = self.unique[xv as usize].remove(&self.nodes, n.lo, n.hi);
                debug_assert!(removed, "moved node was not in its unique table");
            }
        }
        self.level2var.swap(level as usize, level as usize + 1);
        self.var2level[xv as usize] = level + 1;
        self.var2level[yv as usize] = level;
        for &r in &moved {
            let n = self.nodes[r.index()];
            let (f00, f01) = if self.nodes[n.lo.index()].var == yv {
                let c = self.nodes[n.lo.index()];
                (c.lo, c.hi)
            } else {
                (n.lo, n.lo)
            };
            let (f10, f11) = if self.nodes[n.hi.index()].var == yv {
                let c = self.nodes[n.hi.index()];
                (c.lo, c.hi)
            } else {
                (n.hi, n.hi)
            };
            // Build the new cofactors first, then release the old ones, so
            // shared grandchildren never transiently die.
            let new_lo = self.reorder_mk(xv, f00, f10, ctx);
            let new_hi = self.reorder_mk(xv, f01, f11, ctx);
            debug_assert_ne!(new_lo, new_hi, "swap produced a redundant node");
            self.dec_ref(n.lo, ctx);
            self.dec_ref(n.hi, ctx);
            self.nodes[r.index()] = PackedNode {
                var: yv,
                lo: new_lo,
                hi: new_hi,
                aux: 0,
            };
            // Relink the rewritten node into the lower level's table; by
            // canonicity its new key cannot collide with an existing node.
            self.unique[yv as usize].reserve(&self.nodes);
            match self.unique[yv as usize].probe(&self.nodes, new_lo, new_hi) {
                Err(pos) => self.unique[yv as usize].fill(pos, r.0),
                Ok(_) => debug_assert!(
                    false,
                    "swap collided with an existing node at the lower level"
                ),
            }
        }
        ctx.moved = moved;
        ctx.swaps += 1;
    }

    /// Right-sizes every level's slot array after the swaps settle.
    /// Swaps never shrink a table, so the levels a reordering drained
    /// would otherwise keep their peak capacity — and every *later*
    /// swap pays an O(capacity) scan of the upper level, so one
    /// compaction pass here directly cheapens the next reordering.
    fn compact_tables(&mut self) {
        for table in &mut self.unique {
            table.compact(&self.nodes);
        }
    }

    // ---- sifting ------------------------------------------------------

    /// The current block structure: groups move as one block, ungrouped
    /// variables as singletons; blocks are listed top level first.
    fn current_blocks(&self) -> Vec<Vec<u32>> {
        let mut blocks = Vec::new();
        let mut level = 0usize;
        while level < self.level2var.len() {
            let var = self.level2var[level];
            match self.var_group[var as usize] {
                Some(gid) => {
                    let members = self.groups[gid as usize].clone();
                    debug_assert_eq!(members[0], var, "group must start at its topmost member");
                    level += members.len();
                    blocks.push(members);
                }
                None => {
                    blocks.push(vec![var]);
                    level += 1;
                }
            }
        }
        blocks
    }

    /// Swaps the adjacent blocks at positions `i` and `i + 1`, one
    /// variable-level swap at a time.
    fn swap_adjacent_blocks(&mut self, blocks: &mut [Vec<u32>], i: usize, ctx: &mut ReorderCtx) {
        let a_len = blocks[i].len() as u32;
        let b_len = blocks[i + 1].len() as u32;
        let top = self.var2level[blocks[i][0] as usize];
        // Bubble each variable of the lower block up past the upper block.
        for k in 0..b_len {
            for l in (top + k..top + k + a_len).rev() {
                self.swap_levels(l, ctx);
            }
        }
        blocks.swap(i, i + 1);
    }

    /// One sifting pass: every block, largest live level first, is moved
    /// down, then up, and parked where the live size was minimal. Each
    /// direction stops at the order's end, on the first move past
    /// [`MAX_GROWTH`] times the block's best size, or after
    /// [`MAX_STALE_MOVES`] moves into new positions that do not beat it.
    fn sift_all(&mut self, ctx: &mut ReorderCtx) -> usize {
        let initial = self.current_blocks();
        if initial.len() <= 1 {
            return 0;
        }
        // Sift big levels first: they have the most to gain.
        let mut order: Vec<u32> = initial.iter().map(|b| b[0]).collect();
        order.sort_by_key(|&top| {
            let block = &initial[initial.iter().position(|b| b[0] == top).unwrap()];
            std::cmp::Reverse(
                block
                    .iter()
                    .map(|&v| self.unique[v as usize].len())
                    .sum::<usize>(),
            )
        });
        for top_var in order {
            let mut blocks = self.current_blocks();
            let start = blocks
                .iter()
                .position(|b| b[0] == top_var)
                .expect("block still present");
            let mut pos = start;
            let mut probe = SiftProbe {
                best: self.live_size(),
                best_pos: pos,
                stale: 0,
            };
            // Down towards the bottom…
            while pos + 1 < blocks.len() {
                self.swap_adjacent_blocks(&mut blocks, pos, ctx);
                pos += 1;
                if probe.stop_after(pos, self.live_size(), true) {
                    break;
                }
            }
            // …then up towards the top, retracing the down pass first…
            probe.stale = 0;
            while pos > 0 {
                self.swap_adjacent_blocks(&mut blocks, pos - 1, ctx);
                pos -= 1;
                if probe.stop_after(pos, self.live_size(), pos < start) {
                    break;
                }
            }
            // …and back to the best position seen.
            let best_pos = probe.best_pos;
            while pos < best_pos {
                self.swap_adjacent_blocks(&mut blocks, pos, ctx);
                pos += 1;
            }
            while pos > best_pos {
                self.swap_adjacent_blocks(&mut blocks, pos - 1, ctx);
                pos -= 1;
            }
        }
        initial.len()
    }

    // ---- debug invariants ---------------------------------------------

    /// Exhaustive post-reorder consistency check (debug builds only).
    fn check_reorder_invariants(&self, ctx: &ReorderCtx) -> bool {
        // level maps are inverse bijections
        for (var, &lvl) in self.var2level.iter().enumerate() {
            assert_eq!(self.level2var[lvl as usize] as usize, var);
        }
        // groups are adjacent and in order
        for group in &self.groups {
            for w in group.windows(2) {
                assert_eq!(
                    self.var2level[w[1] as usize],
                    self.var2level[w[0] as usize] + 1,
                    "reorder separated a variable group"
                );
            }
        }
        // unique tables agree with node labels, respect the order, find
        // their own entries, and together with the free list they
        // partition the slots
        let mut tabled = 0usize;
        for (var, table) in self.unique.iter().enumerate() {
            for r in table.iter_refs() {
                let n = self.nodes[r.index()];
                assert_eq!(n.var as usize, var);
                assert_eq!(
                    table.probe(&self.nodes, n.lo, n.hi),
                    Ok(r),
                    "tabled node is not findable under its own key"
                );
                assert!(self.var2level[var] < self.level(n.lo));
                assert!(self.var2level[var] < self.level(n.hi));
                tabled += 1;
            }
        }
        assert_eq!(
            tabled,
            self.live_nodes() - 2,
            "unique tables and free list must partition the slots"
        );
        // every internal edge is reflected in the refcounts
        for slot in 2..self.nodes.len() as u32 {
            let n = self.nodes[slot as usize];
            if n.var == FREE_VAR {
                continue;
            }
            for child in [n.lo, n.hi] {
                if !child.is_const() {
                    assert!(
                        ctx.rc[child.index()] > 0,
                        "live node has an uncounted child"
                    );
                }
            }
        }
        true
    }

    /// Applies an explicit variable order (levels top to bottom) by
    /// swapping adjacent levels; mainly useful for tests and experiments.
    /// Empty `roots` (the public path) pins every allocated node so every
    /// handle stays valid; non-empty `roots` (in-crate tests) collect
    /// everything unreachable from them and the root table first.
    /// Grouped variables must appear contiguously in `order`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of all variables, or if it
    /// tears a declared group apart or reverses a group's internal order.
    pub fn set_order(&mut self, roots: &[Ref], order: &[VarId]) {
        assert_eq!(
            order.len(),
            self.num_vars(),
            "order must cover all variables"
        );
        let mut seen = vec![false; self.num_vars()];
        for &v in order {
            assert!(!seen[v.index()], "duplicate variable in order");
            seen[v.index()] = true;
        }
        // Groups must appear contiguously *and* in their declared internal
        // order — `groups[gid]` stays sorted by level, and block movement
        // relies on that invariant in release builds too.
        let mut position = vec![0usize; self.num_vars()];
        for (pos, &v) in order.iter().enumerate() {
            position[v.index()] = pos;
        }
        for group in &self.groups {
            for w in group.windows(2) {
                assert_eq!(
                    position[w[1] as usize],
                    position[w[0] as usize] + 1,
                    "order must keep reorder group {:?} contiguous and in declared order",
                    group
                );
            }
        }
        self.clear_caches();
        let mut ctx = if roots.is_empty() {
            // Pin-all: applying a permutation needs no size metric, so
            // every existing handle can be kept valid.
            self.reorder_ctx(&[])
        } else {
            self.rooted_ctx(roots)
        };
        // Selection sort by adjacent swaps: place each target level in turn.
        for (target, &var) in order.iter().enumerate() {
            let mut lvl = self.var2level[var.index()] as usize;
            while lvl > target {
                self.swap_levels(lvl as u32 - 1, &mut ctx);
                lvl -= 1;
            }
        }
        debug_assert!(self.check_reorder_invariants(&ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the classic worst-case-order function
    /// `(x0 ∧ x1) ∨ (x2 ∧ x3) ∨ (x4 ∧ x5)` with the pairs split across the
    /// order: `x0 x2 x4 x1 x3 x5`.
    fn split_pairs(bdd: &mut Inner) -> (Vec<VarId>, Ref) {
        let vars = bdd.new_vars(6);
        // Interleave the order badly: evens first, odds after.
        let bad: Vec<VarId> = [0, 2, 4, 1, 3, 5].iter().map(|&i| vars[i]).collect();
        bdd.set_order(&[], &bad);
        let mut f = Ref::FALSE;
        for pair in vars.chunks(2) {
            let a = bdd.var(pair[0]);
            let b = bdd.var(pair[1]);
            let c = bdd.and(a, b);
            f = bdd.or(f, c);
        }
        (vars, f)
    }

    #[test]
    fn swap_preserves_denotation_and_refs() {
        let mut bdd = Inner::new();
        let (vars, f) = split_pairs(&mut bdd);
        let before: Vec<bool> = (0..64u32)
            .map(|bits| bdd.eval(f, &|v| bits >> v.index() & 1 == 1))
            .collect();
        let mut ctx = bdd.reorder_ctx(&[f]);
        for level in [0, 2, 4, 1, 3, 0] {
            bdd.swap_levels(level, &mut ctx);
            let after: Vec<bool> = (0..64u32)
                .map(|bits| bdd.eval(f, &|v| bits >> v.index() & 1 == 1))
                .collect();
            assert_eq!(before, after, "swap at level {level} changed the function");
        }
        let _ = vars;
    }

    #[test]
    fn sifting_finds_the_linear_order() {
        let mut bdd = Inner::new();
        let (_, f) = split_pairs(&mut bdd);
        let before = bdd.node_count(f);
        let stats = bdd.reduce_heap(&[f]);
        let after = bdd.node_count(f);
        assert_eq!(stats.before, before);
        assert_eq!(stats.after, after);
        // The pairs-split order needs ~2^(n/2) nodes; the sifted order is
        // linear (2 nodes per conjunction pair plus sharing).
        assert!(
            after < before,
            "sifting failed to shrink: {before} -> {after}"
        );
        assert_eq!(after, 6, "optimal order for 3 disjoint pairs is linear");
    }

    #[test]
    fn upward_growth_ends_the_direction() {
        // (x0 ∧ x1) ∨ (x2 ∧ x3) ∨ (x4 ∧ x5) in its optimal order, 6 nodes.
        // Swapping a pair's two members keeps 6; every move that tears
        // a pair apart makes 8 > 1.2 × 6. So each block's upward
        // exploration passes the growth bound within two moves, before
        // the run bound of four could end it. Per block, top first:
        // down 2 + up 2, down 1 + up 2 + back 1, down 2 + up 3 + back 1,
        // down 1 + up 3 + back 2, down 1 + up 2 + back 1, up 2 + back 2.
        // Up passes that ignored the growth bound would run to the top
        // (44 swaps), and the run bound alone would stop them at 42.
        let mut bdd = Inner::new();
        let vars = bdd.new_vars(6);
        let mut f = Ref::FALSE;
        for pair in vars.chunks(2) {
            let a = bdd.var(pair[0]);
            let b = bdd.var(pair[1]);
            let c = bdd.and(a, b);
            f = bdd.or(f, c);
        }
        let stats = bdd.reduce_heap(&[f]);
        assert_eq!((stats.before, stats.after), (6, 6));
        assert_eq!(stats.swaps, 28);
        assert_eq!(bdd.current_order(), vars);
    }

    #[test]
    fn groups_stay_adjacent_through_sifting() {
        let mut bdd = Inner::new();
        let vars = bdd.new_vars(8);
        for pair in vars.chunks(2) {
            bdd.group_vars(pair);
        }
        // A function whose optimal order conflicts with the declared
        // grouping, so sifting has real work to do.
        let mut f = Ref::FALSE;
        for i in 0..4 {
            let a = bdd.var(vars[i]);
            let b = bdd.var(vars[7 - i]);
            let c = bdd.and(a, b);
            f = bdd.or(f, c);
        }
        bdd.reduce_heap(&[f]);
        for pair in vars.chunks(2) {
            assert_eq!(
                bdd.level_of(pair[1]),
                bdd.level_of(pair[0]) + 1,
                "group {pair:?} was separated"
            );
        }
    }

    /// The GC checkpoint: silent below its 4,096-node floor, it fires
    /// once the live count crosses it, and re-arms at twice what the
    /// collection left behind.
    #[test]
    fn auto_trigger_fires_and_rearms() {
        let mut bdd = Inner::new();
        let (_, f) = split_pairs(&mut bdd);
        let vars = bdd.new_vars(16);
        assert_eq!(bdd.gc_checkpoint(&[f]), None, "below the floor");
        // Garbage: distinct 16-literal cubes, one chain of nodes each.
        let mut cube = 0u32;
        while bdd.live_nodes() < 4096 {
            let mut c = Ref::TRUE;
            for (i, &v) in vars.iter().enumerate() {
                let lit = bdd.literal(v, cube >> i & 1 == 1);
                c = bdd.and(c, lit);
            }
            cube += 1;
        }
        let runs = bdd.stats().gc_runs;
        let freed = bdd.gc_checkpoint(&[f]).expect("floor crossed");
        assert!(freed > 0);
        assert_eq!(bdd.stats().gc_runs, runs + 1);
        assert!(bdd.live_nodes() < 4096);
        // Far below the re-armed threshold now: no second fire.
        assert_eq!(bdd.gc_checkpoint(&[f]), None);
        assert_eq!(bdd.stats().gc_runs, runs + 1);
    }

    #[test]
    #[should_panic(expected = "contiguous and in declared order")]
    fn set_order_rejects_reversed_group() {
        let mut bdd = Inner::new();
        let vars = bdd.new_vars(4);
        bdd.group_vars(&[vars[0], vars[1]]);
        // Contiguous but internally reversed: must be rejected, otherwise
        // `groups` and the level maps fall out of sync.
        let order = vec![vars[2], vars[1], vars[0], vars[3]];
        bdd.set_order(&[], &order);
    }

    #[test]
    fn set_order_applies_permutation() {
        let mut bdd = Inner::new();
        let vars = bdd.new_vars(4);
        let f = {
            let a = bdd.var(vars[0]);
            let b = bdd.var(vars[3]);
            bdd.and(a, b)
        };
        let order: Vec<VarId> = [3, 1, 0, 2].iter().map(|&i| vars[i]).collect();
        bdd.set_order(&[f], &order);
        assert_eq!(bdd.current_order(), order);
        assert!(bdd.eval(f, &|v| v == vars[0] || v == vars[3]));
        assert!(!bdd.eval(f, &|v| v == vars[0]));
    }
}
