//! The raw-speed table layer: open-addressing unique tables and
//! direct-mapped compute caches.
//!
//! # Unique tables
//!
//! [`UniqueTable`] hash-conses the nodes of one variable (the manager
//! keeps one per level, so dynamic reordering can relink a whole level
//! without touching the rest). A table is a power-of-two array of bare
//! `u32` arena slots — four bytes per entry, no boxed keys — probed
//! linearly from a multiplicative (Fibonacci) hash of the `(lo, hi)`
//! cofactor pair. The node key itself is read straight out of the arena
//! during the probe, so the table never duplicates it. Growth doubles
//! the array at 3/4 load; removal (reordering reclaims nodes eagerly)
//! uses backward-shift deletion so probe chains never accumulate
//! tombstones; GC clears and rebuilds each table from the marked arena.
//!
//! # Compute caches
//!
//! The memo tables behind `ite`, quantification, the fused relational
//! product and `compose` are *caches*, not maps: fixed-size,
//! power-of-two, direct-mapped, lossy. A colliding insert simply
//! overwrites the previous entry. That is sound because
//! every memoized operation is a pure function of its operands — losing
//! an entry can only cost a recomputation, and the recomputation
//! rebuilds the very same nodes through the unique table, so results
//! (and even slot assignment) are bit-identical to an engine with
//! unbounded memos. Per-call-scoped memos (quantification masks differ
//! between calls) are handled with a generation tag instead of a wipe:
//! each top-level call bumps the tag, so entries from earlier calls can
//! never match. `clear_caches` still hard-clears everything, preserving
//! the contract that gc / reordering leave no stale `Ref` observable.

use crate::node::{PackedNode, Ref};

/// Sentinel for an empty table or cache slot. Arena slots can never
/// reach it: the allocator asserts the arena stays below `FREE_VAR`.
const EMPTY: u32 = u32::MAX;

/// Fibonacci hashing constant (2^64 / golden ratio, odd).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn hash_pair(lo: Ref, hi: Ref) -> u64 {
    (((lo.0 as u64) << 32) | hi.0 as u64).wrapping_mul(FIB)
}

/// Mixes three operand words into well-distributed high bits.
#[inline]
fn hash_triple(a: u32, b: u32, c: u32) -> u64 {
    let h = (((a as u64) << 32) | b as u64).wrapping_mul(FIB);
    (h ^ c as u64).wrapping_mul(FIB)
}

// ---- unique table ------------------------------------------------------

/// Open-addressing hash-consing table for the nodes of one variable.
#[derive(Debug, Clone)]
pub(crate) struct UniqueTable {
    /// Power-of-two array of arena slots (`EMPTY` = vacant).
    slots: Box<[u32]>,
    /// Occupied entries.
    len: usize,
    /// `64 - log2(slots.len())`: maps a 64-bit hash to an index.
    shift: u32,
}

impl UniqueTable {
    const INITIAL_CAP: usize = 16;

    pub fn new() -> Self {
        UniqueTable {
            slots: vec![EMPTY; Self::INITIAL_CAP].into_boxed_slice(),
            len: 0,
            shift: 64 - Self::INITIAL_CAP.trailing_zeros(),
        }
    }

    /// Number of nodes tabled (== live nodes labelled with this
    /// variable) — the level-size metric sifting sorts by.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Slot-array capacity — the cost of a full scan or memset, which
    /// can exceed `len` arbitrarily since removal never shrinks.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Heap footprint of the slot array in bytes.
    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn home(&self, lo: Ref, hi: Ref) -> usize {
        (hash_pair(lo, hi) >> self.shift) as usize
    }

    /// Ensures one more entry fits below the 3/4 load threshold.
    /// Callers invoke this *before* [`UniqueTable::probe`], so a vacant
    /// position returned by the probe stays valid for
    /// [`UniqueTable::fill`].
    pub fn reserve(&mut self, nodes: &[PackedNode]) {
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            self.grow(nodes);
        }
    }

    fn grow(&mut self, nodes: &[PackedNode]) {
        let new_cap = self.slots.len() * 2;
        let mut new = vec![EMPTY; new_cap].into_boxed_slice();
        let shift = 64 - new_cap.trailing_zeros();
        let mask = new_cap - 1;
        for &s in self.slots.iter() {
            if s == EMPTY {
                continue;
            }
            let n = &nodes[s as usize];
            let mut i = (hash_pair(n.lo, n.hi) >> shift) as usize;
            while new[i] != EMPTY {
                i = (i + 1) & mask;
            }
            new[i] = s;
        }
        self.slots = new;
        self.shift = shift;
    }

    /// Looks up the node with cofactors `(lo, hi)`: `Ok` with its `Ref`
    /// on a hit, `Err` with the vacant probe position on a miss (pass it
    /// to [`UniqueTable::fill`] after allocating, provided no other
    /// table mutation intervened).
    #[inline]
    pub fn probe(&self, nodes: &[PackedNode], lo: Ref, hi: Ref) -> Result<Ref, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(lo, hi);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return Err(i);
            }
            let n = &nodes[s as usize];
            if n.lo == lo && n.hi == hi {
                return Ok(Ref(s));
            }
            i = (i + 1) & mask;
        }
    }

    /// Writes a freshly allocated arena slot into the vacant position a
    /// preceding [`UniqueTable::probe`] miss returned.
    #[inline]
    pub fn fill(&mut self, pos: usize, slot: u32) {
        debug_assert_eq!(self.slots[pos], EMPTY, "fill of an occupied position");
        self.slots[pos] = slot;
        self.len += 1;
    }

    /// Inserts a node known not to be present (GC rebuild path).
    pub fn insert_fresh(&mut self, nodes: &[PackedNode], slot: u32) {
        self.reserve(nodes);
        let n = &nodes[slot as usize];
        match self.probe(nodes, n.lo, n.hi) {
            Err(pos) => self.fill(pos, slot),
            Ok(_) => debug_assert!(false, "insert_fresh found a duplicate node"),
        }
    }

    /// Removes the node with cofactors `(lo, hi)` using backward-shift
    /// deletion (no tombstones: every displaced entry on the probe chain
    /// is moved back toward its home slot). Returns whether it was
    /// present.
    pub fn remove(&mut self, nodes: &[PackedNode], lo: Ref, hi: Ref) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = self.home(lo, hi);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return false;
            }
            let n = &nodes[s as usize];
            if n.lo == lo && n.hi == hi {
                break;
            }
            i = (i + 1) & mask;
        }
        self.len -= 1;
        // Backward shift: slide later chain members into the hole when
        // doing so moves them no earlier than their home position.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s == EMPTY {
                break;
            }
            let n = &nodes[s as usize];
            let home = self.home(n.lo, n.hi);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        true
    }

    /// Empties the table, keeping its capacity (GC rebuild path).
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    /// Replaces the whole table with exactly the `kept` arena slots
    /// (which must be distinct, absent duplicates of each other, and
    /// intact in `nodes`), keeping the current capacity: one memset
    /// plus `kept` reinsertions, no allocation. This is the batch
    /// unlink path of the reordering swap — when most of a level moves
    /// at once it beats per-node backward-shift deletion, whose cost is
    /// a probe chain walk per removal.
    pub fn rebuild(&mut self, nodes: &[PackedNode], kept: &[u32]) {
        self.slots.fill(EMPTY);
        self.len = kept.len();
        if kept.is_empty() {
            return;
        }
        let mask = self.slots.len() - 1;
        for &s in kept {
            let n = &nodes[s as usize];
            let mut i = (hash_pair(n.lo, n.hi) >> self.shift) as usize;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// Right-sizes the slot array to the current occupancy when it is
    /// at least 4x oversized. `remove` and `rebuild` never shrink
    /// capacity, so a level that peaked early would otherwise tax every
    /// later full-table scan (each reorder swap walks the whole array)
    /// at its peak footprint forever. Called once per reordering, after
    /// the swaps settle — not per swap, where the allocation churn
    /// would outweigh the scan savings.
    pub fn compact(&mut self, nodes: &[PackedNode]) {
        let cap = (self.len * 4 / 3 + 1)
            .next_power_of_two()
            .max(Self::INITIAL_CAP);
        if cap * 4 > self.slots.len() {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap].into_boxed_slice());
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for &s in old.iter() {
            if s == EMPTY {
                continue;
            }
            let n = &nodes[s as usize];
            let mut i = (hash_pair(n.lo, n.hi) >> self.shift) as usize;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// All tabled nodes, in slot order (deterministic).
    pub fn iter_refs(&self) -> impl Iterator<Item = Ref> + '_ {
        self.slots.iter().filter(|&&s| s != EMPTY).map(|&s| Ref(s))
    }
}

// ---- direct-mapped compute caches --------------------------------------

const ITE_BITS: u32 = 16;
const UNARY_BITS: u32 = 15;
const PAIR_BITS: u32 = 15;

/// Direct-mapped cache for the ternary `ite` operator (16 bytes/entry).
/// Persistent across calls; cleared by `clear_caches` only.
#[derive(Debug, Clone)]
pub(crate) struct IteCache {
    slots: Box<[IteEntry]>,
}

#[derive(Debug, Clone, Copy)]
struct IteEntry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

impl IteCache {
    /// Starts unallocated: the slot array materializes on the first
    /// insert, so a manager that never computes an `ite` (or just got
    /// its caches cleared) costs no cache memory. This keeps fresh
    /// managers — e.g. the parallel engine's per-task managers — cheap
    /// to create.
    pub fn new() -> Self {
        IteCache {
            slots: Box::new([]),
        }
    }

    #[inline]
    fn index(f: Ref, g: Ref, h: Ref) -> usize {
        (hash_triple(f.0, g.0, h.0) >> (64 - ITE_BITS)) as usize
    }

    #[inline]
    pub fn lookup(&self, f: Ref, g: Ref, h: Ref) -> Option<Ref> {
        if self.slots.is_empty() {
            return None;
        }
        let e = &self.slots[Self::index(f, g, h)];
        (e.f == f.0 && e.g == g.0 && e.h == h.0).then_some(Ref(e.r))
    }

    #[inline]
    pub fn insert(&mut self, f: Ref, g: Ref, h: Ref, r: Ref) {
        if self.slots.is_empty() {
            let empty = IteEntry {
                f: EMPTY,
                g: EMPTY,
                h: EMPTY,
                r: EMPTY,
            };
            self.slots = vec![empty; 1 << ITE_BITS].into_boxed_slice();
        }
        self.slots[Self::index(f, g, h)] = IteEntry {
            f: f.0,
            g: g.0,
            h: h.0,
            r: r.0,
        };
    }

    /// Releases the slot array entirely (cheaper than a multi-megabyte
    /// memset, and gc/reorder — the only callers — want the memory back
    /// anyway).
    pub fn clear(&mut self) {
        self.slots = Box::new([]);
    }

    /// Occupied entries (test/diagnostic use; O(capacity)).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|e| e.f != EMPTY).count()
    }

    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<IteEntry>()
    }
}

/// Direct-mapped, generation-tagged cache for unary traversals keyed by
/// one `Ref` (quantification, cofactor-by-literal, compose). Each
/// top-level call gets a fresh tag from [`UnaryCache::begin`], so
/// entries written under a different mask / substitution can never
/// match — the tag replaces the per-call `HashMap::clear`.
#[derive(Debug, Clone)]
pub(crate) struct UnaryCache {
    slots: Box<[UnaryEntry]>,
    tag: u64,
}

#[derive(Debug, Clone, Copy)]
struct UnaryEntry {
    /// Generation tag (0 = never written; live tags start at 1).
    tag: u64,
    key: u32,
    r: u32,
}

impl UnaryCache {
    /// Starts unallocated; see [`IteCache::new`].
    pub fn new() -> Self {
        UnaryCache {
            slots: Box::new([]),
            tag: 0,
        }
    }

    /// Starts a new top-level operation; only entries written under the
    /// returned tag will hit.
    pub fn begin(&mut self) -> u64 {
        self.tag += 1;
        self.tag
    }

    #[inline]
    fn index(key: Ref) -> usize {
        ((key.0 as u64).wrapping_mul(FIB) >> (64 - UNARY_BITS)) as usize
    }

    #[inline]
    pub fn lookup(&self, tag: u64, key: Ref) -> Option<Ref> {
        if self.slots.is_empty() {
            return None;
        }
        let e = &self.slots[Self::index(key)];
        (e.tag == tag && e.key == key.0).then_some(Ref(e.r))
    }

    #[inline]
    pub fn insert(&mut self, tag: u64, key: Ref, r: Ref) {
        if self.slots.is_empty() {
            self.slots = vec![
                UnaryEntry {
                    tag: 0,
                    key: EMPTY,
                    r: EMPTY
                };
                1 << UNARY_BITS
            ]
            .into_boxed_slice();
        }
        self.slots[Self::index(key)] = UnaryEntry {
            tag,
            key: key.0,
            r: r.0,
        };
    }

    /// Releases the slot array. The tag counter keeps running, so stale
    /// entries can never be hit even across a clear-and-reallocate
    /// cycle (freshly allocated slots carry tag 0, which `begin` never
    /// returns).
    pub fn clear(&mut self) {
        self.slots = Box::new([]);
    }

    /// Entries ever written since the last clear (test/diagnostic use).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|e| e.tag != 0).count()
    }

    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<UnaryEntry>()
    }
}

/// Direct-mapped, generation-tagged cache keyed by an ordered `Ref`
/// pair: the fused relational product's memo (the quantified-variable
/// mask changes per call, hence the tag).
#[derive(Debug, Clone)]
pub(crate) struct PairCache {
    slots: Box<[PairEntry]>,
    tag: u64,
}

#[derive(Debug, Clone, Copy)]
struct PairEntry {
    tag: u64,
    a: u32,
    b: u32,
    r: u32,
}

impl PairCache {
    /// Starts unallocated; see [`IteCache::new`].
    pub fn new() -> Self {
        PairCache {
            slots: Box::new([]),
            tag: 0,
        }
    }

    /// Starts a new top-level operation (see [`UnaryCache::begin`]).
    pub fn begin(&mut self) -> u64 {
        self.tag += 1;
        self.tag
    }

    #[inline]
    fn index(a: Ref, b: Ref) -> usize {
        (hash_pair(a, b) >> (64 - PAIR_BITS)) as usize
    }

    #[inline]
    pub fn lookup(&self, tag: u64, a: Ref, b: Ref) -> Option<Ref> {
        if self.slots.is_empty() {
            return None;
        }
        let e = &self.slots[Self::index(a, b)];
        (e.tag == tag && e.a == a.0 && e.b == b.0).then_some(Ref(e.r))
    }

    #[inline]
    pub fn insert(&mut self, tag: u64, a: Ref, b: Ref, r: Ref) {
        if self.slots.is_empty() {
            self.slots = vec![
                PairEntry {
                    tag: 0,
                    a: EMPTY,
                    b: EMPTY,
                    r: EMPTY
                };
                1 << PAIR_BITS
            ]
            .into_boxed_slice();
        }
        self.slots[Self::index(a, b)] = PairEntry {
            tag,
            a: a.0,
            b: b.0,
            r: r.0,
        };
    }

    /// Releases the slot array; see [`UnaryCache::clear`] for why stale
    /// tags stay unhittable.
    pub fn clear(&mut self) {
        self.slots = Box::new([]);
    }

    /// Entries ever written since the last clear (test/diagnostic use).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|e| e.tag != 0).count()
    }

    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<PairEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NIL_SLOT;

    /// Builds a fake arena whose node `i` has cofactors `(keys[i].0,
    /// keys[i].1)` — enough for the table to compare keys.
    fn arena(keys: &[(u32, u32)]) -> Vec<PackedNode> {
        keys.iter()
            .map(|&(lo, hi)| PackedNode {
                var: 0,
                lo: Ref(lo),
                hi: Ref(hi),
                aux: NIL_SLOT,
            })
            .collect()
    }

    #[test]
    fn unique_table_inserts_probes_and_grows() {
        // 100 distinct keys force several doublings past the initial 16.
        let keys: Vec<(u32, u32)> = (0..100).map(|i| (i, i + 1)).collect();
        let nodes = arena(&keys);
        let mut t = UniqueTable::new();
        for (i, &(lo, hi)) in keys.iter().enumerate() {
            t.reserve(&nodes);
            match t.probe(&nodes, Ref(lo), Ref(hi)) {
                Err(pos) => t.fill(pos, i as u32),
                Ok(_) => panic!("fresh key already present"),
            }
        }
        assert_eq!(t.len(), 100);
        for (i, &(lo, hi)) in keys.iter().enumerate() {
            assert_eq!(t.probe(&nodes, Ref(lo), Ref(hi)), Ok(Ref(i as u32)));
        }
        assert!(t.probe(&nodes, Ref(500), Ref(501)).is_err());
    }

    #[test]
    fn unique_table_remove_keeps_chains_probeable() {
        let keys: Vec<(u32, u32)> = (0..64).map(|i| (i * 7, i * 7 + 3)).collect();
        let nodes = arena(&keys);
        let mut t = UniqueTable::new();
        for (i, &(lo, hi)) in keys.iter().enumerate() {
            t.reserve(&nodes);
            let pos = t.probe(&nodes, Ref(lo), Ref(hi)).unwrap_err();
            t.fill(pos, i as u32);
        }
        // Remove every third key; every survivor must stay findable
        // (backward-shift deletion leaves no broken probe chains).
        for (i, &(lo, hi)) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.remove(&nodes, Ref(lo), Ref(hi)));
                assert!(!t.remove(&nodes, Ref(lo), Ref(hi)), "double remove");
            }
        }
        for (i, &(lo, hi)) in keys.iter().enumerate() {
            let got = t.probe(&nodes, Ref(lo), Ref(hi)).ok();
            if i % 3 == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some(Ref(i as u32)));
            }
        }
        assert_eq!(t.len(), 64 - 22);
    }

    #[test]
    fn ite_cache_is_lossy_but_exact() {
        let mut c = IteCache::new();
        assert_eq!(c.lookup(Ref(2), Ref(3), Ref(4)), None);
        c.insert(Ref(2), Ref(3), Ref(4), Ref(9));
        assert_eq!(c.lookup(Ref(2), Ref(3), Ref(4)), Some(Ref(9)));
        // A different key never aliases to a wrong answer.
        assert_eq!(c.lookup(Ref(2), Ref(3), Ref(5)), None);
        assert_eq!(c.occupied(), 1);
        c.clear();
        assert_eq!(c.occupied(), 0);
        assert_eq!(c.lookup(Ref(2), Ref(3), Ref(4)), None);
    }

    #[test]
    fn unary_cache_generations_do_not_leak() {
        let mut c = UnaryCache::new();
        let t1 = c.begin();
        c.insert(t1, Ref(7), Ref(11));
        assert_eq!(c.lookup(t1, Ref(7)), Some(Ref(11)));
        let t2 = c.begin();
        // Same key, new generation: the old entry must not match.
        assert_eq!(c.lookup(t2, Ref(7)), None);
        c.insert(t2, Ref(7), Ref(13));
        assert_eq!(c.lookup(t2, Ref(7)), Some(Ref(13)));
        assert!(c.occupied() > 0);
        c.clear();
        assert_eq!(c.occupied(), 0);
        let t3 = c.begin();
        assert_eq!(c.lookup(t3, Ref(7)), None);
    }

    #[test]
    fn pair_cache_generations_do_not_leak() {
        let mut c = PairCache::new();
        let t1 = c.begin();
        c.insert(t1, Ref(3), Ref(5), Ref(8));
        assert_eq!(c.lookup(t1, Ref(3), Ref(5)), Some(Ref(8)));
        let t2 = c.begin();
        assert_eq!(c.lookup(t2, Ref(3), Ref(5)), None);
        c.clear();
        assert_eq!(c.occupied(), 0);
    }
}
