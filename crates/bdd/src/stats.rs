//! Deterministic per-manager engine counters.
//!
//! Every hot path of the engine — the hash-consing constructor, the
//! memo tables, garbage collection, dynamic reordering — bumps a plain
//! `u64` on the manager as it works. The counters are a pure function of
//! the operations performed (never of wall-clock, allocation addresses,
//! or thread scheduling), so two identical runs produce identical
//! counters — the workspace's stats-determinism suite locks this in.
//! Maintenance is a field increment on paths that already touch the
//! manager, cheap enough to stay on unconditionally.

/// A snapshot of one manager's engine counters, returned by
/// [`crate::BddManager::stats`].
///
/// The `peak_live_nodes` high-water mark is maintained on node
/// *allocation* and is deliberately **not** lowered by garbage
/// collection — it answers "how big did this manager ever get", which a
/// collection does not change. [`crate::BddManager::reset_stats`] resets
/// it to the *current* live-node count (never to zero: the nodes that
/// exist at reset time have well and truly been allocated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Unique-table lookups that found an existing node.
    pub unique_hits: u64,
    /// Unique-table lookups that missed (each one allocates).
    pub unique_misses: u64,
    /// Nodes inserted into the unique table (equals `unique_misses`;
    /// kept separate so the invariant is checkable from outside).
    pub unique_insertions: u64,
    /// `ite` computed-table hits.
    pub ite_hits: u64,
    /// `ite` computed-table misses.
    pub ite_misses: u64,
    /// Quantification memo hits (`exists`/`forall`/`cofactor`).
    pub quant_hits: u64,
    /// Quantification memo misses.
    pub quant_misses: u64,
    /// Fused relational-product (`and_exists`) memo hits.
    pub pair_hits: u64,
    /// Fused relational-product memo misses.
    pub pair_misses: u64,
    /// Always 0: the engine has no `restrict`. Kept only for the
    /// `perfbench` harness, which reads it; nothing under `crates/` does.
    pub restrict_hits: u64,
    /// Always 0; see [`BddStats::restrict_hits`].
    pub restrict_misses: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Node slots reclaimed across all collections.
    pub gc_nodes_reclaimed: u64,
    /// Sifting passes actually performed (excludes empty-manager early
    /// returns).
    pub reorder_invocations: u64,
    /// Adjacent-level swaps performed across all sifting passes.
    pub reorder_swaps: u64,
    /// Sum of live-node counts entering each sifting pass.
    pub reorder_size_before: u64,
    /// Sum of live-node counts leaving each sifting pass.
    pub reorder_size_after: u64,
    /// High-water mark of the live-node count (see type docs for the
    /// gc/reset semantics).
    pub peak_live_nodes: u64,
}

impl BddStats {
    /// The counters as `(name, value)` pairs in a fixed, documented
    /// order — the bridge into name-keyed telemetry accumulators without
    /// making this crate depend on one.
    pub fn pairs(&self) -> [(&'static str, u64); 16] {
        [
            ("bdd_unique_hits", self.unique_hits),
            ("bdd_unique_misses", self.unique_misses),
            ("bdd_unique_insertions", self.unique_insertions),
            ("bdd_ite_hits", self.ite_hits),
            ("bdd_ite_misses", self.ite_misses),
            ("bdd_quant_hits", self.quant_hits),
            ("bdd_quant_misses", self.quant_misses),
            ("bdd_pair_hits", self.pair_hits),
            ("bdd_pair_misses", self.pair_misses),
            ("bdd_gc_runs", self.gc_runs),
            ("bdd_gc_nodes_reclaimed", self.gc_nodes_reclaimed),
            ("bdd_reorder_invocations", self.reorder_invocations),
            ("bdd_reorder_swaps", self.reorder_swaps),
            ("bdd_reorder_size_before", self.reorder_size_before),
            ("bdd_reorder_size_after", self.reorder_size_after),
            ("bdd_peak_live_nodes", self.peak_live_nodes),
        ]
    }
}
