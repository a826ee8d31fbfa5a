//! The deck-sharded worker pool and the deterministic result merge.
//!
//! A [`covest_bdd::BddManager`] is an `Rc<RefCell<…>>` handle and
//! deliberately **not** `Send`: sharing one node arena across threads
//! would put a lock on every `ite`. The pool therefore shards by
//! *deck*: each deck's machine (a [`crate::shard::Shard`]) gets one
//! private manager, compiles its (union-cone-reduced) module once,
//! verifies the suite once, and covers its signals on that machine in
//! declaration order. Shards drain from per-worker deques with
//! whole-shard stealing — see [`crate::shard`] — and results are
//! reassembled **by deck index**, so the report order (and every byte of
//! it) is independent of scheduling.
//!
//! One manager per *shard* (not per worker) is a deliberate determinism
//! choice: a worker that happened to run two shards on a shared manager
//! would report different node counts than one that didn't, making
//! output depend on scheduling. With per-shard managers every shard is a
//! pure function of (deck source, config), so `--jobs 1` and `--jobs 64`
//! produce byte-identical reports — even when shards are stolen.

use std::time::Duration;

use covest_bdd::BddDump;
use covest_core::{CoverageTable, PropertyVerdict, ReportRow};
use covest_telemetry::{Counters, SpanRecord};

use crate::plan::{DeckJob, ParConfig, WorkPlan};
use crate::shard::run_pool;

/// Errors from planning or running a parallel batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A deck failed to parse (during static planning) or compile (on
    /// its shard's manager).
    Plan {
        /// Deck display name.
        deck: String,
        /// Underlying error message.
        message: String,
    },
    /// A deck's verification, or one signal's coverage, failed. When
    /// several decks fail, the one listed first is reported, and within
    /// a deck its first failure — deterministically, regardless of
    /// completion order.
    Task {
        /// Deck display name.
        deck: String,
        /// The observed signal whose coverage failed; `None` when the
        /// deck's verification failed.
        signal: Option<String>,
        /// Underlying error message.
        message: String,
    },
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Plan { deck, message } => write!(f, "planning `{deck}`: {message}"),
            ParError::Task {
                deck,
                signal: Some(signal),
                message,
            } => write!(f, "analyzing `{deck}` signal `{signal}`: {message}"),
            ParError::Task {
                deck,
                signal: None,
                message,
            } => write!(f, "verifying `{deck}`: {message}"),
        }
    }
}

impl std::error::Error for ParError {}

/// The outcome of one per-signal coverage task.
#[derive(Debug, Clone)]
pub struct SignalOutcome {
    /// Deck display name.
    pub deck: String,
    /// Observed signal.
    pub signal: String,
    /// The Table-2 row: percentage, counts, verdicts, the canonical
    /// uncovered-state sample, node counts and timings.
    pub row: ReportRow,
    /// The uncovered-state set, exported name-keyed — importable into
    /// any manager (e.g. the front-end's, for trace generation, or a
    /// parity harness's, for semantic comparison).
    pub uncovered: BddDump,
}

/// The per-shard observability record collected when
/// [`ParConfig::profile`] is on: where the shard's wall-clock went, the
/// span log its phases recorded, and the deterministic engine counters
/// of its private manager.
///
/// The counters (and spans' deterministic fields) are a pure function of
/// (deck source, config) — byte-identical across `jobs` values and
/// across identical runs. Every `Duration` here, and the `stolen` flag,
/// is a wall-clock scheduling fact and excluded from any parity
/// contract.
#[derive(Debug, Clone)]
pub struct ShardProfile {
    /// Deck display name.
    pub deck: String,
    /// The deck's analyzed signals in declaration order; empty for a
    /// verification-only shard.
    pub signals: Vec<String>,
    /// Time between the shard being enqueued and a worker dequeuing it
    /// (its own or a thief) — by construction never more than the
    /// pool's wall-clock.
    pub queue_wait: Duration,
    /// Time compiling the shard's module on its private manager
    /// (including the startup sifting pass, when configured).
    pub compile: Duration,
    /// Time setting up the machine's checker: lowering the fairness
    /// constraints and, with simplification on, the reachability fixpoint
    /// and care install. With simplification off no fixpoint runs here:
    /// the first signal's coverage computes reachability inside `solve`,
    /// and a verification-only shard computes none.
    pub reach: Duration,
    /// Time verifying the suite once and then covering each signal.
    pub solve: Duration,
    /// `true` if the shard was executed by a worker other than the one
    /// it was dealt to. Scheduling observability only.
    pub stolen: bool,
    /// Index of the pool worker that executed the shard (the thief, if
    /// stolen). Scheduling observability only — it is also the shard's
    /// trace track: tid = `worker + 1` (tid 0 is the driver).
    pub worker: usize,
    /// Per-phase peak-live attribution table (`compile` / `reach` /
    /// `care_install` / `verify` / `signal:NAME` / `other` → peak live
    /// nodes), the fold of the span forest's memory samples —
    /// deterministic, and its maximum equals the `bdd_peak_live_nodes`
    /// counter exactly.
    /// See [`covest_telemetry::memory::peak_by_phase`].
    pub peak_by_phase: Counters,
    /// Deterministic counters: the telemetry tallies recorded during the
    /// shard (image calls, fixpoint iterations, …) plus the manager's
    /// [`covest_bdd::BddStats`] as `bdd_`-prefixed entries.
    pub counters: Counters,
    /// The shard's span/event forest (see [`covest_telemetry`]).
    /// Emptied after streaming when the run carries a trace sink.
    pub spans: Vec<SpanRecord>,
}

impl ShardProfile {
    /// The shard manager's live-node high-water mark (the
    /// `bdd_peak_live_nodes` counter) — also the maximum of
    /// [`ShardProfile::peak_by_phase`].
    pub fn peak_live_nodes(&self) -> u64 {
        self.counters.get("bdd_peak_live_nodes")
    }

    /// `(before, after)` live-node sizes of the post-compile sifting
    /// pass (the `bdd_reorder_size_before`/`_after` counters; both zero
    /// when reordering never ran).
    pub fn reorder_sizes(&self) -> (u64, u64) {
        (
            self.counters.get("bdd_reorder_size_before"),
            self.counters.get("bdd_reorder_size_after"),
        )
    }
}

/// All results for one deck, in signal declaration order.
#[derive(Debug, Clone)]
pub struct DeckReport {
    /// Deck display name.
    pub name: String,
    /// Number of properties in the deck's suite.
    pub num_properties: usize,
    /// Per-property verdicts (suite order) of the deck machine's one
    /// verification pass. Vacuity is signal-independent and decided by
    /// the first signal's coverage; a deck without signals marks no
    /// property vacuous.
    pub verdicts: Vec<PropertyVerdict>,
    /// Per-signal outcomes, in declaration order.
    pub signals: Vec<SignalOutcome>,
    /// Wall-clock the planner spent statically analyzing this deck
    /// (parse + cones + reduction).
    pub plan_time: Duration,
    /// The deck shard's profile — empty unless [`ParConfig::profile`] is
    /// set.
    pub profiles: Vec<ShardProfile>,
}

impl DeckReport {
    /// `true` if every property of the deck holds.
    pub fn all_hold(&self) -> bool {
        self.verdicts.iter().all(|v| v.holds)
    }
}

/// Scheduling statistics for one batch run: how the work was executed.
/// Pure observability — every field except `shards` depends on timing
/// and core count, so none of this may reach a deterministic report
/// surface (it is excluded from all parity contracts).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Worker threads actually spawned.
    pub workers: usize,
    /// Shards in the plan.
    pub shards: usize,
    /// Shards executed by a worker other than the one they were dealt
    /// to.
    pub steals: usize,
}

/// The deterministic merge of a whole batch: decks in input order,
/// signals in declaration order — independent of worker scheduling.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-deck reports, in batch input order.
    pub decks: Vec<DeckReport>,
    /// How the batch was scheduled (non-deterministic observability;
    /// never part of the report's parity surface).
    pub sched: SchedStats,
}

impl BatchReport {
    /// `true` if every property of every deck holds.
    pub fn all_hold(&self) -> bool {
        self.decks.iter().all(DeckReport::all_hold)
    }

    /// All signal outcomes flattened, in deterministic report order.
    pub fn outcomes(&self) -> impl Iterator<Item = &SignalOutcome> {
        self.decks.iter().flat_map(|d| d.signals.iter())
    }

    /// The batch as a Table-2-style [`CoverageTable`].
    pub fn table(&self) -> CoverageTable {
        let mut table = CoverageTable::new();
        for o in self.outcomes() {
            table.push(o.row.clone());
        }
        table
    }
}

impl WorkPlan {
    /// Executes the plan on a pool of `config.jobs` worker threads (one
    /// deque each, whole-shard stealing) and merges the results
    /// deterministically: decks in input order, signals in declaration
    /// order, whatever order shards completed in — and on whichever
    /// worker.
    ///
    /// # Errors
    ///
    /// The first-listed failing deck's first failure:
    /// [`ParError::Plan`] if its compile fails, [`ParError::Task`] if its
    /// verification or a signal's coverage does (deterministic under
    /// racing failures).
    pub fn run(&self, config: &ParConfig) -> Result<BatchReport, ParError> {
        self.run_inner(config, None)
    }

    /// [`WorkPlan::run`], streaming every profiled shard's span forest
    /// into `sink` as results arrive — one track per worker, the shard
    /// root span tagged with its `stolen` flag. Streamed forests are
    /// dropped from the returned profiles ([`ShardProfile::spans`] comes
    /// back empty), so a long batch holds at most one shard's records at
    /// a time. Without [`ParConfig::profile`] there are no records and
    /// the sink stays untouched.
    pub fn run_with_trace(
        &self,
        config: &ParConfig,
        sink: &mut dyn covest_telemetry::chrome::TraceSink,
    ) -> Result<BatchReport, ParError> {
        self.run_inner(config, Some(sink))
    }

    fn run_inner(
        &self,
        config: &ParConfig,
        sink: Option<&mut dyn covest_telemetry::chrome::TraceSink>,
    ) -> Result<BatchReport, ParError> {
        let (slots, steals, workers) = run_pool(self, config, sink);
        let decks = slots
            .into_iter()
            .map(|s| s.expect("every shard reports exactly once"))
            .collect::<Result<_, _>>()?;
        Ok(BatchReport {
            decks,
            sched: SchedStats {
                workers,
                shards: self.shards.len(),
                steals,
            },
        })
    }
}

/// Plans and runs a batch in one call — the front door used by
/// `covest batch`. Every plan runs on the pool, whatever its shard count
/// or size, so each shard compiles its cone-reduced module whenever
/// [`ParConfig::coi`] is on.
///
/// Planning is static (parse + cones, no BDDs) and cheap, so it always
/// completes before execution; a plan failure therefore takes precedence
/// over every shard outcome.
///
/// # Errors
///
/// See [`WorkPlan::plan`] and [`WorkPlan::run`].
pub fn run_batch(jobs: &[DeckJob], config: &ParConfig) -> Result<BatchReport, ParError> {
    WorkPlan::plan(jobs, config)?.run(config)
}

/// [`run_batch`] with a streaming trace sink — see
/// [`WorkPlan::run_with_trace`]. Without [`ParConfig::profile`] no shard
/// records anything and the sink stays untouched.
pub fn run_batch_with_trace(
    jobs: &[DeckJob],
    config: &ParConfig,
    sink: &mut dyn covest_telemetry::chrome::TraceSink,
) -> Result<BatchReport, ParError> {
    WorkPlan::plan(jobs, config)?.run_with_trace(config, sink)
}
