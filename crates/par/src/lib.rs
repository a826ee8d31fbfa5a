//! # covest-par
//!
//! The parallel coverage engine: run the DAC'99 estimator's per-signal
//! analyses **concurrently**, across one deck or a whole fleet of decks,
//! under a single thread budget — with results bit-identical to the
//! sequential estimator.
//!
//! The paper's workflow (Table 2 / Section 4) verifies a deck's suite
//! once and then runs one coverage analysis per observed signal on the
//! verified machine. A [`covest_bdd::BddManager`] is an `Rc<RefCell<…>>`
//! handle and deliberately not `Send`, so the engine cannot share one
//! machine across threads; decks, however, are independent. This crate
//! supplies the pieces that turn deck independence into wall-clock
//! speedup, and the one coverage path both front ends run:
//!
//! - **[`WorkPlan`]** — decompose decks into one **shard** each: the
//!   deck's machine (the union of its analyzed signals' cones, from
//!   [`plan_machine`]) and one coverage task per signal. Planning is
//!   purely static (parse, dependency graph, cones of influence — no
//!   BDDs) and runs on the batch's `jobs` threads, one deck at a time per
//!   thread, largest source first.
//! - **The shard body** — compile and sift ([`compile_machine`]), verify
//!   the suite once, then cover each signal in declaration order
//!   ([`cover_signal`]), reusing the verification's memoized
//!   satisfaction sets. `covest check` runs this same body on its own
//!   thread, printing between the steps.
//! - **The worker pool** ([`WorkPlan::run`]) — `jobs` threads, the
//!   calling thread among them, take shards largest-first (by their
//!   static cone weights) from one shared cursor, the planner's
//!   dispatcher: every shard is known before the first one runs, so
//!   this is Graham's LPT list schedule. Every shard executes on one
//!   fresh private manager, wherever it lands.
//! - **Deterministic merge** ([`BatchReport`]) — results are assembled
//!   by deck index: decks in input order, signals in declaration order,
//!   byte-identical reports regardless of scheduling or `jobs`.
//!
//! No BDD leaves its shard: each signal comes back as a
//! [`SignalOutcome`], its Table-2 row with the canonical sample of its
//! uncovered states as named bit values.
//!
//! [`run_batch`] is the one-call front door (`covest batch`), with an
//! optional trace sink each worker streams its finished shards' span
//! forests into. The contract — enforced by `tests/parity.rs` — is that
//! the pool is *pure mechanism*: coverage percentages, per-property
//! verdicts and uncovered-state sets (listed whole, in canonical order)
//! are bit-identical to the sequential
//! estimator's (the test suite's pre-parallel oracle, which compiles the
//! full deck and verifies the suite again for every signal); only node
//! counts and timings may differ between the pool and that oracle, and
//! even those are identical across `jobs` values.
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
//! let report = run_batch(&jobs, &ParConfig { jobs: 2, ..Default::default() }, None)?;
//! assert!(report.all_hold());
//! // The property covers the b-state but not the !b-state: 1 of 2.
//! assert_eq!(report.decks[0].signals[0].row.percent, 50.0);
//! # Ok::<(), covest_par::ParError>(())
//! ```

mod plan;
mod pool;
mod shard;

pub use plan::{plan_machine, DeckJob, DeckMachine, ParConfig, SignalTask, WorkPlan};
pub use pool::{
    run_batch, BatchReport, DeckReport, ParError, SchedStats, ShardProfile, SignalOutcome,
};
pub use shard::{compile_machine, cover_signal, install_mem_sampler, startup_sift};
