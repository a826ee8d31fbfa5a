//! # covest-par
//!
//! The parallel coverage engine: run the DAC'99 estimator's per-signal
//! analyses **concurrently**, across one deck or a whole fleet of decks,
//! under a single thread budget — with results bit-identical to the
//! sequential estimator.
//!
//! The paper's workflow (Table 2 / Section 4) runs one coverage analysis
//! per observed signal, and each analysis is independent once the model
//! is compiled. The sequential pipeline nevertheless runs them one after
//! another inside a single [`covest_bdd::BddManager`] — which is an
//! `Rc<RefCell<…>>` handle and deliberately not `Send`, so the engine
//! cannot simply share it across threads. This crate supplies the three
//! pieces that turn signal independence into wall-clock speedup:
//!
//! - **[`WorkPlan`]** — decompose decks × observed signals into
//!   per-signal tasks and cone-disjoint **shards**. Planning is purely
//!   static (parse, dependency graph, cones of influence — no BDDs) and
//!   runs on the batch's `jobs` threads, one deck at a time per thread.
//!   Signals whose cones overlap are grouped into one shard, which
//!   compiles one union-cone machine and runs one reachability fixpoint
//!   for all of them, instead of every signal paying its own compile.
//! - **The worker pool** ([`WorkPlan::run`]) — `jobs` OS threads, one
//!   deque each. Shards are dealt round-robin largest-first (by their
//!   static cone weights); an idle worker **steals whole shards** —
//!   never individual signals — from its peers, so every shard still
//!   executes its signals in declaration order on one fresh private
//!   manager, wherever it lands. Every plan takes the pool, so the
//!   cone-of-influence reduction applies to one-shard decks too.
//! - **Deterministic merge** ([`BatchReport`]) — results are assembled
//!   by task index: decks in input order, signals in declaration order,
//!   byte-identical reports regardless of scheduling, stealing or
//!   `jobs`.
//!
//! [`run_batch`] is the one-call front door (`covest batch`);
//! [`run_sequential`] is the pre-parallel oracle the bench and parity
//! suites compare against, and nothing else calls it. The contract —
//! enforced by `tests/parity.rs` across the full image × simplify ×
//! reorder mode cross, and under forced stealing — is that parallelism
//! is *pure mechanism*: coverage percentages, per-property verdicts and
//! uncovered-state sets are bit-identical to the sequential estimator's;
//! only node counts and timings (per-shard managers vs one shared
//! manager) may differ between the pool and the baseline, and even
//! those are identical across `jobs` values.
//!
//! # Example
//!
//! ```
//! use covest_par::{run_batch, DeckJob, ParConfig};
//!
//! let deck = r#"
//! MODULE main
//! VAR b : boolean;
//! ASSIGN init(b) := FALSE; next(b) := !b;
//! SPEC AG (b -> AX !b);
//! OBSERVED b;
//! "#;
//! let jobs = vec![DeckJob::new("toggler", deck)];
//! let report = run_batch(&jobs, &ParConfig { jobs: 2, ..Default::default() })?;
//! assert!(report.all_hold());
//! // The property covers the b-state but not the !b-state: 1 of 2.
//! assert_eq!(report.decks[0].signals[0].row.percent, 50.0);
//! # Ok::<(), covest_par::ParError>(())
//! ```

mod plan;
mod pool;
mod shard;

pub use plan::{DeckJob, ParConfig, WorkPlan};
pub use pool::{
    run_batch, run_batch_with_trace, run_sequential, BatchReport, DeckReport, ParError, SchedStats,
    ShardProfile, SignalOutcome,
};
