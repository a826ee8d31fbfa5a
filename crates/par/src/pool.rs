//! The deck-sharded worker pool and the deterministic result merge.
//!
//! A [`covest_bdd::BddManager`] is an `Rc<RefCell<…>>` handle and
//! deliberately **not** `Send`: sharing one node arena across threads
//! would put a lock on every `ite`. The pool therefore shards by
//! *deck*: each deck's machine (a [`crate::shard::Shard`]) gets one
//! private manager, compiles its (union-cone-reduced) module once,
//! verifies the suite once, and covers its signals on that machine in
//! declaration order. Every shard is known before the first one runs,
//! so the pool has one dispatcher, [`drain`]: the threads take shards
//! largest-first from one shared cursor (the planner drains its decks
//! the same way), and results are reassembled **by deck index**, so the
//! report order (and every byte of it) is independent of scheduling.
//!
//! One manager per *shard* (not per worker) is a deliberate determinism
//! choice: a worker that happened to run two shards on a shared manager
//! would report different node counts than one that didn't, making
//! output depend on scheduling. With per-shard managers every shard is a
//! pure function of (deck source, config), so `--jobs 1` and `--jobs 64`
//! produce byte-identical reports.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use covest_core::{CoverageTable, PropertyVerdict, ReportRow};
use covest_telemetry::chrome::TraceSink;
use covest_telemetry::{Counters, SpanRecord};

use crate::plan::{DeckJob, ParConfig, WorkPlan};
use crate::shard::run_shard;

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
}

/// The per-shard observability record collected when
/// [`ParConfig::profile`] is on: where the shard's wall-clock went, the
/// span log its phases recorded, and the deterministic engine counters
/// of its private manager.
///
/// The counters (and spans' deterministic fields) are a pure function of
/// (deck source, config) — byte-identical across `jobs` values and
/// across identical runs. Every `Duration` here is a wall-clock
/// scheduling fact and excluded from any parity contract.
#[derive(Debug, Clone)]
pub struct ShardProfile {
    /// Deck display name.
    pub deck: String,
    /// The deck's analyzed signals in declaration order; empty for a
    /// verification-only shard.
    pub signals: Vec<String>,
    /// Time from the pool's start to a worker taking the shard — by
    /// construction never more than the pool's wall-clock.
    pub queue_wait: Duration,
    /// Time compiling the shard's module on its private manager
    /// (including the startup sifting pass).
    pub compile: Duration,
    /// Time computing the machine's reachable states, after
    /// verification and before the first signal's coverage; zero for a
    /// verification-only shard, which computes none.
    pub reach: Duration,
    /// Time setting up the checker (lowering the fairness constraints),
    /// verifying the suite once and covering each signal: the shard's
    /// time after compile, without `reach`.
    pub solve: Duration,
    /// Per-phase peak-live attribution table (`compile` / `reach` /
    /// `verify` / `signal:NAME` / `other` → peak live nodes), the fold of
    /// the span forest's memory samples — deterministic, and its maximum
    /// equals the `bdd_peak_live_nodes` counter exactly.
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
/// Pure observability — `workers` depends on the thread budget and the
/// core count, so none of this may reach a deterministic report surface
/// (it is excluded from all parity contracts).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Threads the shards ran on, the calling thread included.
    pub workers: usize,
    /// Shards in the plan.
    pub shards: usize,
    /// Always 0: no shard moves between workers. Kept only for the
    /// `perfbench` harness, which reads it; nothing under `crates/` does.
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

/// Runs `work(item, worker)` on every item `0..weights.len()`, over
/// `min(threads, items)` threads: the calling thread is worker 0, and
/// the others are scoped threads numbered from 1. Each worker takes the
/// heaviest item no worker has taken yet (ties in item order), which is
/// Graham's LPT list schedule. The results come back indexed by item,
/// whatever order they finished in.
///
/// No other code under a crate's `src/` starts a thread (devlint's
/// `one-dispatcher` rule): the planner drains decks through here and
/// the pool drains shards.
pub(crate) fn drain<R: Send>(
    weights: &[usize],
    threads: usize,
    work: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    // `next` only hands out ranks; each worker's results come back
    // through its join.
    let next = AtomicUsize::new(0);
    let run = |worker: usize| {
        let mut done = Vec::new();
        while let Some(&item) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((item, work(item, worker)));
        }
        done
    };
    let run = &run;
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(order.len()))
            .map(|worker| scope.spawn(move || run(worker)))
            .collect();
        let mut done = run(0);
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(item, _)| item);
    done.into_iter().map(|(_, result)| result).collect()
}

impl WorkPlan {
    /// Executes the plan on [`ParConfig::effective_jobs`] threads (never
    /// more than there are shards, the calling thread among them), shards
    /// taken largest-first by their static cone weights, and merges the
    /// results deterministically: decks in input order, signals in
    /// declaration order, whatever order shards completed in — and on
    /// whichever thread.
    ///
    /// # Errors
    ///
    /// The first-listed failing deck's first failure:
    /// [`ParError::Plan`] if its compile fails, [`ParError::Task`] if its
    /// verification or a signal's coverage does (deterministic under
    /// racing failures).
    pub fn run(&self, config: &ParConfig) -> Result<BatchReport, ParError> {
        self.run_traced(config, None)
    }

    /// [`WorkPlan::run`], streaming each profiled shard's span forest
    /// into `sink` (see [`run_batch`]).
    fn run_traced(
        &self,
        config: &ParConfig,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<BatchReport, ParError> {
        let weights: Vec<usize> = self.shards.iter().map(|s| s.weight).collect();
        let threads = config.effective_jobs();
        let clock = config.batch_clock();
        let start = clock.now();
        let sink = sink.map(Mutex::new);
        let decks = drain(&weights, threads, |s, worker| {
            let queue_wait = clock.now().saturating_sub(start);
            let mut result = run_shard(&self.shards[s], config, queue_wait, &clock);
            if let (Ok(report), Some(sink)) = (&mut result, &sink) {
                for profile in report.profiles.iter_mut().filter(|p| !p.spans.is_empty()) {
                    let spans = std::mem::take(&mut profile.spans);
                    let mut sink = sink.lock().expect("no worker panics while writing a track");
                    sink.write_track(worker as u64 + 1, &format!("worker {worker}"), &spans);
                }
            }
            result
        });
        Ok(BatchReport {
            decks: decks.into_iter().collect::<Result<_, _>>()?,
            sched: SchedStats {
                workers: threads.min(self.shards.len()).max(1),
                shards: self.shards.len(),
                steals: 0,
            },
        })
    }
}

/// Plans and runs a batch in one call — the front door used by
/// `covest batch`. With a `sink`, the worker that ran a profiled shard
/// writes its span forest there as soon as the shard is done: track
/// `worker + 1`, labeled `worker N` (tid 0 is left to the caller's front
/// end). A written forest is dropped from its profile
/// ([`ShardProfile::spans`] comes back empty), so trace memory stays
/// bounded by one shard per worker. Without [`ParConfig::profile`] no
/// shard records anything and the sink stays untouched.
///
/// Planning is static (parse + cones, no BDDs) and cheap, so it always
/// completes before execution; a plan failure therefore takes precedence
/// over every shard outcome.
///
/// # Errors
///
/// See [`WorkPlan::plan`] and [`WorkPlan::run`].
pub fn run_batch(
    jobs: &[DeckJob],
    config: &ParConfig,
    sink: Option<&mut dyn TraceSink>,
) -> Result<BatchReport, ParError> {
    WorkPlan::plan(jobs, config)?.run_traced(config, sink)
}
