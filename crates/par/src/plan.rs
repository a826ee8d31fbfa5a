//! Work planning: one shard per deck, per the paper's workflow.
//!
//! The DAC'99 estimator verifies a deck's suite once and then runs one
//! coverage analysis per observed signal (Table 2 has one row per
//! signal). Planning here is **purely static** — parse, dependency
//! graph, cones of influence — and builds no BDDs: all compile,
//! reachability and verification work happens inside the shards. Decks
//! are planned independently of each other, so they are planned on the
//! batch's `jobs` threads. Each deck becomes one shard (see
//! [`crate::shard`]): one machine — the union of the analyzed signals'
//! cones — verified once, with one coverage task per
//! signal in declaration order, which is also the order results are
//! reassembled in, whatever order workers finish.

use std::sync::Arc;

use covest_analyze::{reducible, DepGraph, Reduction};
use covest_smv::{ImageConfig, Module};

use crate::pool::{drain, ParError};
use crate::shard::Shard;

/// One deck in a batch: a name (shown in reports), the SMV source text,
/// and an optional observed-signal override.
#[derive(Debug, Clone)]
pub struct DeckJob {
    /// Display name (typically the deck's path).
    pub name: String,
    /// SMV source text.
    pub source: String,
    /// Signals to analyze; empty means the deck's `OBSERVED` list.
    pub observed: Vec<String>,
}

impl DeckJob {
    /// A deck job analyzing the deck's own `OBSERVED` signals.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        DeckJob {
            name: name.into(),
            source: source.into(),
            observed: Vec::new(),
        }
    }
}

/// Configuration for planning and running a parallel coverage batch.
#[derive(Clone)]
pub struct ParConfig {
    /// Thread budget for the worker pool (`0` = one worker per available
    /// core), the calling thread included. The budget is shared by *all*
    /// shards of a batch — one per deck, drained largest-first from one
    /// shared cursor — and the planner plans the decks the same way on
    /// the same number of threads.
    pub jobs: usize,
    /// Kept only for the `perfbench` harness, which reads it; nothing
    /// under `crates/` does.
    pub image: ImageConfig,
    /// How many uncovered states to sample per signal (the canonical
    /// declaration-order sample; see
    /// [`covest_core::CoverageEstimator::uncovered_states`]).
    pub uncovered_limit: usize,
    /// Collect a per-shard [`crate::ShardProfile`] — phase durations, a
    /// span log, and the shard's deterministic engine counters. Off by
    /// default; the counters are a pure function of (deck source,
    /// config), so they are byte-identical across `jobs` values, while
    /// the durations are wall-clock scheduling facts and excluded from
    /// parity.
    pub profile: bool,
    /// Emit the throttled stderr progress heartbeat (and arm the
    /// fixpoint watchdog) on every shard. Pure stderr observability —
    /// never reaches a report byte. See [`covest_telemetry::progress`].
    pub progress: bool,
    /// The clock stamping profile spans, queue waits, and the progress
    /// throttle. `None` (the default) means a fresh
    /// [`covest_telemetry::WallClock`] per batch; tests inject a
    /// [`covest_telemetry::ManualClock`] to freeze every timestamp and
    /// make whole span forests byte-comparable across runs.
    pub clock: Option<Arc<dyn covest_telemetry::Clock>>,
}

impl std::fmt::Debug for ParConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParConfig")
            .field("jobs", &self.jobs)
            .field("uncovered_limit", &self.uncovered_limit)
            .field("profile", &self.profile)
            .field("progress", &self.progress)
            .field("clock", &self.clock.as_ref().map(|_| "injected"))
            .finish()
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            jobs: 1,
            image: ImageConfig::default(),
            uncovered_limit: 10,
            profile: false,
            progress: false,
            clock: None,
        }
    }
}

impl ParConfig {
    /// The effective worker count: `jobs`, or the number of available
    /// cores when `jobs == 0`, never less than one.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }

    /// The clock one batch runs under: the injected one, or a fresh
    /// [`covest_telemetry::WallClock`] with its epoch at the call. One
    /// shared clock per batch keeps every worker's span timestamps on a
    /// single timeline, which is what makes merged trace tracks line up.
    pub(crate) fn batch_clock(&self) -> Arc<dyn covest_telemetry::Clock> {
        self.clock
            .clone()
            .unwrap_or_else(|| Arc::new(covest_telemetry::WallClock::new()))
    }
}

/// One coverage task of a deck machine: an analyzed signal and its cone.
#[derive(Debug, Clone)]
pub struct SignalTask {
    /// The observed signal.
    pub signal: String,
    /// The signal's cone state-bit names in declaration order — the
    /// task's counting/sampling universe and its static size estimate.
    pub cone: Vec<String>,
}

/// What one deck machine compiles and analyzes (see [`plan_machine`]).
#[derive(Debug)]
pub struct DeckMachine {
    /// The module to compile: the parsed deck, pruned to the union of
    /// the task cones when `reduced`.
    pub module: Module,
    /// Whether `module` is the union-cone reduction, which dropped a
    /// variable of the parsed deck.
    pub reduced: bool,
    /// The coverage tasks, in the order the signals were given.
    pub tasks: Vec<SignalTask>,
}

/// The planner's per-deck step, shared by every `batch` deck and by
/// `covest check`: each analyzed signal's cone, and the module the
/// deck's one machine compiles — the parsed deck, pruned in place to
/// the union of the cones with a [`Reduction`]. The parsed deck is
/// compiled as it is instead when
/// - no signal is analyzed (a verification-only run);
/// - a name has no cone (see [`reducible`]);
/// - or the union keeps every variable.
///
/// Planning works on declaration indices: the property suite's cone
/// ([`DepGraph::suite_cone`]) is computed once and each signal's cone
/// extends it. A deck's signals always share one machine: every task
/// cone contains the cone of every `SPEC` and `FAIRNESS` atom, so two
/// cones are disjoint only when the properties depend on no variable —
/// and then no property can cover a state.
///
/// # Errors
///
/// The message compiling the deck gives for its first repeated name
/// ([`Module::repeated_name`]), on every run, or else for the first
/// property the CTL parser rejects.
pub fn plan_machine(mut module: Module, signals: &[String]) -> Result<DeckMachine, String> {
    if let Some((_, _, e)) = module.repeated_name() {
        return Err(e.to_string());
    }
    if signals.is_empty() {
        return Ok(DeckMachine {
            module,
            reduced: false,
            tasks: Vec::new(),
        });
    }
    if let Some(e) = module.property_error() {
        return Err(e.to_string());
    }
    let graph = DepGraph::new(&module);
    let suite = graph.suite_cone();
    let mut union = suite.clone();
    let tasks = signals
        .iter()
        .map(|signal| {
            let mut cone = suite.clone();
            graph.extend_cone(&mut cone, [signal.as_str()]);
            union.union_with(&cone);
            SignalTask {
                signal: signal.clone(),
                cone: cone.bit_names(&module),
            }
        })
        .collect();
    let reduction = (reducible(&module, &graph, signals) && !union.is_full()).then(|| {
        // The reduced deck observes each signal once; the tasks keep
        // duplicates (two identical rows).
        let mut observed: Vec<String> = Vec::with_capacity(signals.len());
        for signal in signals {
            if !observed.contains(signal) {
                observed.push(signal.clone());
            }
        }
        Reduction::new(&graph, union, &observed)
    });
    let reduced = reduction.is_some();
    if let Some(reduction) = reduction {
        reduction.apply(&mut module);
    }
    Ok(DeckMachine {
        module,
        reduced,
        tasks,
    })
}

/// Plans a single deck, statically: parse (validating early), then
/// [`plan_machine`] over the job's signals into the deck's one shard.
fn plan_deck(job: &DeckJob) -> Result<Shard, ParError> {
    let plan_err = |message: String| ParError::Plan {
        deck: job.name.clone(),
        message,
    };
    let sw = covest_telemetry::Stopwatch::start();
    let module = covest_smv::parse_module(&job.source).map_err(|e| plan_err(e.to_string()))?;
    let signals: Vec<String> = if job.observed.is_empty() {
        module.observed.iter().map(|o| o.name.clone()).collect()
    } else {
        job.observed.clone()
    };
    let DeckMachine { module, tasks, .. } = plan_machine(module, &signals).map_err(plan_err)?;
    let weight = if tasks.is_empty() {
        usize::MAX
    } else {
        tasks
            .iter()
            .map(|t| t.cone.len())
            .fold(0usize, usize::saturating_add)
    };
    Ok(Shard {
        deck: job.name.clone(),
        num_properties: module.specs.len(),
        module,
        tasks,
        weight,
        plan_time: sw.elapsed(),
    })
}

/// The decomposition of a batch into shards, one per deck, each with its
/// per-signal coverage tasks.
///
/// Built by [`WorkPlan::plan`]; executed by [`WorkPlan::run`]. The plan
/// is immutable, `Send + Sync`, and carries no BDD handles — only parsed
/// modules, names and cone bit lists — so the worker pool can share it
/// by reference across threads. Planning is static (no compiles, no
/// reachability); all BDD work happens inside the shards, in parallel.
#[derive(Debug)]
pub struct WorkPlan {
    pub(crate) shards: Vec<Shard>,
}

impl WorkPlan {
    /// Parses and statically validates every deck, computes each
    /// signal's cone of influence, and lays out one shard per deck with
    /// one task per observed signal (none for a verification-only deck).
    ///
    /// Decks are planned on [`ParConfig::effective_jobs`] threads (never
    /// more than there are decks), the calling thread among them, each
    /// taking the largest deck (by source length) that no thread has
    /// taken yet; the plan is the same whatever the thread count.
    ///
    /// # Errors
    ///
    /// [`ParError::Plan`] if a deck fails to parse or a property fails
    /// to parse; when several decks fail, the one listed first. (Semantic
    /// compile failures surface when the shard compiles, also as
    /// [`ParError::Plan`].)
    pub fn plan(jobs: &[DeckJob], config: &ParConfig) -> Result<WorkPlan, ParError> {
        let sizes: Vec<usize> = jobs.iter().map(|j| j.source.len()).collect();
        let shards = drain(&sizes, config.effective_jobs(), |i, _| plan_deck(&jobs[i]))
            .into_iter()
            .collect::<Result<_, _>>()?;
        Ok(WorkPlan { shards })
    }

    /// Total number of per-signal coverage tasks.
    pub fn num_tasks(&self) -> usize {
        self.shards.iter().map(|s| s.tasks.len()).sum()
    }

    /// Number of shards — the pool's schedulable units, one per deck.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Static per-task size estimates, in task order: the cone width in
    /// state bits. A shard's scheduling weight is the sum over its tasks
    /// (`usize::MAX` for a deck without signals, which verifies the whole
    /// machine); the pool dispatches shards largest-first on those
    /// weights.
    pub fn task_size_estimates(&self) -> Vec<usize> {
        self.shards
            .iter()
            .flat_map(|s| s.tasks.iter().map(|t| t.cone.len()))
            .collect()
    }
}
