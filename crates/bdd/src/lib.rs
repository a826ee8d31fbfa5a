//! # covest-bdd
//!
//! A from-scratch reduced ordered binary decision diagram (ROBDD) engine:
//! the symbolic substrate for the `covest` workspace, which reproduces
//! *"Coverage Estimation for Symbolic Model Checking"* (Hoskote, Kam, Ho,
//! Zhao — DAC 1999).
//!
//! The public API is ownership-based: a [`BddManager`] is a cheaply
//! clonable shared handle to one engine, and every Boolean function is an
//! owned [`Func`] handle that pins itself in the manager's external-root
//! table. Garbage collection ([`BddManager::gc`]) and dynamic variable
//! reordering ([`BddManager::reduce_heap`]) therefore take **no roots
//! argument**: live handles are the live set, and they survive any
//! collection or reordering with unchanged meaning. Raw node indices are
//! a crate-private implementation detail.
//!
//! The engine provides everything a symbolic model checker and the DAC'99
//! coverage estimator need:
//!
//! - hash-consed nodes with a level-organized unique table, so equal
//!   functions are equal [`Func`]s (canonicity);
//! - memoized if-then-else ([`Func::ite`]) and all derived connectives,
//!   with `&f & &g` style operator sugar;
//! - quantification ([`Func::exists`], [`Func::forall`]), the fused
//!   relational product ([`Func::and_exists`]) and schedule-driven
//!   multi-operand products ([`BddManager::and_exists_schedule`]) used
//!   for partitioned image computation;
//! - don't-care simplification ([`Func::constrain`], [`Func::restrict`]):
//!   the Coudert–Madre generalized cofactors, memoized across calls, used
//!   to shrink iterates and transition clusters modulo a care set (e.g.
//!   the reachable states) with zero effect on results inside it;
//! - substitution and renaming ([`Func::compose`],
//!   [`Func::vector_compose`], [`Func::rename`], [`Func::swap_vars`])
//!   for next-state/current-state moves and the paper's *dual FSM*
//!   construction;
//! - model counting ([`Func::sat_count_over`], [`Func::sat_count_exact`])
//!   for coverage percentages, plus cube/minterm enumeration for
//!   reporting uncovered states;
//! - name-keyed serialization ([`Func::export_bdd`],
//!   [`BddManager::import_bdd`]): a compact levelized node-dump format
//!   ([`BddDump`]) that moves functions between managers — the bridge the
//!   parallel coverage engine uses to hand precomputed sets to worker
//!   threads, since managers are deliberately not `Send`;
//! - rootless mark-and-sweep garbage collection and DOT export;
//! - dynamic variable reordering ([`BddManager::reduce_heap`]):
//!   Rudell-style sifting over the level-organized unique table, each
//!   direction bounded by a growth factor and a run of non-improving
//!   moves, with variable groups ([`BddManager::group_vars`]) that keep
//!   each state bit's (current, next) pair adjacent, and automatic
//!   triggering ([`ReorderConfig`]).
//!
//! # Example
//!
//! ```
//! use covest_bdd::BddManager;
//!
//! let mgr = BddManager::new();
//! let x = mgr.new_named_var("x");
//! let y = mgr.new_named_var("y");
//! let f = mgr.var(x).implies(&mgr.var(y));
//! // "x → y" has three satisfying assignments over {x, y}.
//! assert_eq!(f.sat_count_exact(&[x, y]), 3);
//! // Quantifying x away yields the constant true.
//! assert!(f.exists(&[x]).is_true());
//! // Dropping handles releases their roots; gc takes no arguments.
//! drop(f);
//! mgr.gc();
//! assert_eq!(mgr.live_nodes(), 2); // only the terminals remain
//! ```

mod count;
mod dot;
mod handle;
mod manager;
mod node;
mod quant;
mod reorder;
mod serde;
mod simplify;
mod stats;
mod subst;
mod table;

pub use handle::{BddManager, Cubes, Func, Minterms};
pub use node::VarId;
pub use quant::QuantSchedule;
pub use reorder::{ReorderConfig, ReorderMode, ReorderStats};
pub use serde::{BddDump, SerdeError};
pub use stats::BddStats;
