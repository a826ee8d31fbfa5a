//! Reachability analysis: fixpoints and breadth-first onion rings.
//!
//! The BFS loops run *frontier-simplified*: the set handed to the next
//! image computation is the new layer simplified modulo the complement
//! of the already-visited states (per the machine's
//! [`crate::SimplifyConfig`]). Any set `F` with `fresh ⊆ F ⊆ reached`
//! yields the same next layer — extra already-visited states contribute
//! only already-visited successors — and simplifying `fresh` against
//! `¬visited` produces exactly such an `F`, usually a much smaller BDD.
//! The reached sets and rings themselves are untouched, so every result
//! is bit-identical across simplification modes.

use covest_bdd::Func;
use covest_telemetry as telemetry;

use crate::fsm::SymbolicFsm;

impl SymbolicFsm {
    /// All states reachable from `from` in any number of steps, including
    /// `from` itself (the paper's `reachable(S0)`).
    pub fn reachable_from(&self, from: &Func) -> Func {
        let _span = telemetry::span("reachability");
        let simplify = self.image_config().simplify;
        let mut reached = from.clone();
        let mut frontier = from.clone();
        let mut steps = 0u64;
        loop {
            let img = self.image(&frontier);
            let fresh = img.diff(&reached);
            steps += 1;
            telemetry::count("bfs_steps", 1);
            if fresh.is_false() {
                telemetry::span_field("bfs_steps", steps);
                return reached;
            }
            // Care = ¬visited (before absorbing the new layer): the
            // simplified frontier agrees with `fresh` on the unvisited
            // region and is free to absorb visited states elsewhere.
            frontier = simplify.apply(&fresh, &reached.not());
            reached = reached.or(&fresh);
            // Per-step BDD sizes are deterministic but cost a node-count
            // traversal each, so they are gathered only under a recorder.
            if telemetry::is_active() {
                telemetry::event(
                    "bfs_step",
                    &[
                        ("step", steps),
                        ("frontier_nodes", frontier.node_count() as u64),
                        ("visited_nodes", reached.node_count() as u64),
                    ],
                );
            }
            // Same gating for the heartbeat/watchdog channel: the size
            // and support reads are only worth paying when someone
            // listens.
            if telemetry::progress::progress_active() {
                telemetry::progress::fixpoint_progress(
                    "reach",
                    steps,
                    reached.node_count() as u64,
                    reached.support().len() as u64,
                );
            }
        }
    }

    /// All states reachable from the initial states.
    ///
    /// Cached on the image engine after the first computation (the
    /// initial states never change post-build, and the cache shares the
    /// engine's lifecycle — rebuilding via
    /// [`crate::SymbolicFsm::set_image_config`] or
    /// [`crate::SymbolicFsm::constrain`] drops it), so the per-signal
    /// analyses of a multi-signal run pay for the BFS once.
    pub fn reachable(&self) -> Func {
        if let Some(r) = self.engine.cached_reach() {
            return r;
        }
        let r = self.reachable_from(&self.init);
        self.engine.cache_reach(r.clone());
        r
    }

    /// Computes the reachable states and installs them as the image
    /// engine's care set (per the configured [`crate::SimplifyConfig`]),
    /// so subsequent forward fixpoints sweep don't-care-simplified
    /// transition clusters. Returns the reachable set.
    ///
    /// A no-op installation under [`crate::SimplifyConfig::Off`]; also a
    /// no-op when the engine already carries this exact care set
    /// (canonicity makes that a cheap handle comparison), so repeated
    /// calls — e.g. one per observed signal in a multi-signal analysis —
    /// don't re-simplify the clusters or re-derive the schedules.
    pub fn install_reachable_care(&self) -> Func {
        let reach = self.reachable();
        if self.engine.care_set().as_ref() != Some(&reach) {
            let _span = telemetry::span("care_install");
            self.engine
                .install_care(&reach, self.image_config().simplify);
        }
        reach
    }

    /// Breadth-first *onion rings* from `from`: `rings[0] = from`, and
    /// `rings[k]` holds the states first reached at distance `k`.
    /// The union of all rings is [`SymbolicFsm::reachable_from`].
    pub fn onion_rings(&self, from: &Func) -> Vec<Func> {
        let simplify = self.image_config().simplify;
        let mut rings = vec![from.clone()];
        let mut reached = from.clone();
        let mut frontier = from.clone();
        loop {
            let img = self.image(&frontier);
            let fresh = img.diff(&reached);
            if fresh.is_false() {
                return rings;
            }
            rings.push(fresh.clone());
            frontier = simplify.apply(&fresh, &reached.not());
            reached = reached.or(&fresh);
        }
    }

    /// Number of reachable states (the denominator of Definition 4).
    pub fn reachable_count(&self) -> f64 {
        self.reachable().sat_count_over(&self.current_vars())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::FsmBuilder;
    use covest_bdd::BddManager;

    /// A 3-bit counter with no inputs that increments and wraps at 6
    /// (states 6 and 7 unreachable from 0).
    fn mod6_counter(mgr: &BddManager) -> SymbolicFsm {
        let mut b = FsmBuilder::new(mgr, "mod6");
        let bits: Vec<_> = (0..3).map(|i| b.add_state_bit(format!("c{i}"))).collect();
        let f: Vec<Func> = bits.iter().map(|s| mgr.var(s.current)).collect();
        // value == 5 detector
        let is5 = f[0].and(&f[1].not()).and(&f[2]);
        // incremented value
        let inc0 = f[0].not();
        let inc1 = f[1].xor(&f[0]);
        let inc2 = f[2].xor(&f[0].and(&f[1]));
        // next = is5 ? 0 : inc
        let zero = mgr.constant(false);
        b.set_next("c0", is5.ite(&zero, &inc0));
        b.set_next("c1", is5.ite(&zero, &inc1));
        b.set_next("c2", is5.ite(&zero, &inc2));
        let zeros: Vec<Func> = bits.iter().map(|s| mgr.nvar(s.current)).collect();
        b.set_init(mgr.and_many(&zeros));
        b.build().expect("valid")
    }

    #[test]
    fn reachable_excludes_unreachable_codes() {
        let mgr = BddManager::new();
        let fsm = mod6_counter(&mgr);
        assert_eq!(fsm.reachable_count(), 6.0);
    }

    #[test]
    fn rings_partition_reachable() {
        let mgr = BddManager::new();
        let fsm = mod6_counter(&mgr);
        let rings = fsm.onion_rings(fsm.init());
        assert_eq!(rings.len(), 6); // distances 0..5
                                    // Pairwise disjoint and union equals reachable.
        let mut union = mgr.constant(false);
        for (i, ri) in rings.iter().enumerate() {
            for rj in rings.iter().skip(i + 1) {
                assert!(ri.and(rj).is_false());
            }
            union = union.or(ri);
        }
        assert_eq!(union, fsm.reachable());
    }

    #[test]
    fn reachable_from_subset() {
        let mgr = BddManager::new();
        let fsm = mod6_counter(&mgr);
        // Starting at value 4 we can still reach all six states (wraps).
        let s4 = fsm.state_cube(&[("c2", true)]);
        let r = fsm.reachable_from(&s4);
        assert_eq!(r.sat_count_over(&fsm.current_vars()), 6.0);
    }

    #[test]
    fn reachable_is_fixpoint() {
        let mgr = BddManager::new();
        let fsm = mod6_counter(&mgr);
        let r = fsm.reachable();
        assert!(fsm.image(&r).leq(&r));
        let _ = mgr;
    }
}
