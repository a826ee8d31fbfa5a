//! Engine-counter behavior: accumulation, determinism, and the
//! `reset_stats`/`gc` interaction with the peak-live high-water mark.

use covest_bdd::{BddManager, BddStats};

/// A few dozen nodes of work: a conjunction ladder, a quantification
/// and a fused product.
fn workload(mgr: &BddManager) -> covest_bdd::Func {
    let vars: Vec<_> = (0..8).map(|i| mgr.new_named_var(format!("v{i}"))).collect();
    let lits: Vec<_> = vars.iter().map(|&v| mgr.var(v)).collect();
    let conj = mgr.and_many(&lits);
    let parity = lits.iter().fold(mgr.constant(false), |acc, l| acc.xor(l));
    let mix = conj.or(&parity);
    let q = mix.exists(&vars[0..2]);
    let ae = mix.and_exists(&parity, &vars[2..4]);
    drop((q, ae));
    // Return a non-constant function: a constant would hold no root slot,
    // and rootless managers skip sifting entirely.
    mix
}

#[test]
fn counters_accumulate_under_work() {
    let mgr = BddManager::new();
    let keep = workload(&mgr);
    let stats = mgr.stats();
    assert!(stats.unique_misses > 0, "nodes were allocated");
    assert_eq!(
        stats.unique_misses, stats.unique_insertions,
        "every miss inserts exactly once"
    );
    assert!(stats.ite_misses > 0);
    assert!(
        stats.ite_hits > 0,
        "shared subgraphs hit the computed table"
    );
    assert!(stats.quant_misses > 0);
    assert!(stats.pair_misses > 0);
    assert!(stats.peak_live_nodes >= mgr.live_nodes() as u64);
    drop(keep);
}

#[test]
fn identical_runs_produce_identical_counters() {
    let run = || {
        let mgr = BddManager::new();
        let keep = workload(&mgr);
        mgr.reduce_heap();
        drop(keep);
        mgr.gc();
        mgr.stats()
    };
    assert_eq!(run(), run());
}

#[test]
fn gc_does_not_lower_the_peak_high_water_mark() {
    let mgr = BddManager::new();
    let keep = workload(&mgr);
    let peak_before = mgr.stats().peak_live_nodes;
    assert!(peak_before > 2);
    // Drop everything and force a collection: the live count plummets,
    // the high-water mark must not move.
    drop(keep);
    let freed = mgr.gc();
    assert!(freed > 0, "the workload left something to collect");
    let stats = mgr.stats();
    assert_eq!(mgr.live_nodes(), 2, "only terminals survive");
    assert_eq!(
        stats.peak_live_nodes, peak_before,
        "gc must not zero or lower the peak-live high-water mark"
    );
    assert_eq!(stats.gc_runs, 1);
    assert_eq!(stats.gc_nodes_reclaimed, freed as u64);
}

#[test]
fn reset_restarts_peak_at_current_live_not_zero() {
    let mgr = BddManager::new();
    let keep = workload(&mgr);
    let live = mgr.live_nodes() as u64;
    mgr.reset_stats();
    let stats = mgr.stats();
    assert_eq!(
        stats,
        BddStats {
            peak_live_nodes: live,
            ..Default::default()
        },
        "reset zeroes every counter but restarts the peak at the current live count"
    );
    // The mark keeps rising from there on new allocations.
    let extra = workload(&mgr);
    assert!(mgr.stats().peak_live_nodes >= live);
    drop((keep, extra));
}

#[test]
fn reorder_counters_record_sifting_activity() {
    let mgr = BddManager::new();
    let keep = workload(&mgr);
    let report = mgr.reduce_heap();
    let stats = mgr.stats();
    assert_eq!(stats.reorder_invocations, 1);
    assert_eq!(stats.reorder_swaps, report.swaps as u64);
    assert_eq!(stats.reorder_size_before, report.before as u64);
    assert_eq!(stats.reorder_size_after, report.after as u64);
    drop(keep);
}

#[test]
fn pairs_expose_every_field_in_fixed_order() {
    let mgr = BddManager::new();
    let keep = workload(&mgr);
    let stats = mgr.stats();
    let pairs = stats.pairs();
    assert_eq!(pairs.len(), 16);
    assert_eq!(pairs[0], ("bdd_unique_hits", stats.unique_hits));
    assert_eq!(pairs[15], ("bdd_peak_live_nodes", stats.peak_live_nodes));
    assert!(pairs.iter().all(|(name, _)| name.starts_with("bdd_")));
    drop(keep);
}
