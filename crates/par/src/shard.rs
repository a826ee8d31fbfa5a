//! Deck shards: the pool's unit of isolation and scheduling.
//!
//! A **shard** is one deck's machine: the union of its analyzed signals'
//! cones (the full deck when the cone keeps everything; see
//! [`crate::plan_machine`]) and its coverage tasks. Each shard runs on a
//! fresh private [`covest_bdd::BddManager`] one body — compile and sift,
//! verify the suite once, then cover the deck's signals **in declaration
//! order** on that machine, each reusing the verification's memoized
//! satisfaction sets. `covest check` runs the same body on its own
//! thread. The shard's results are therefore a pure function of (deck
//! source, config) — which worker runs it, and when, cannot reach a
//! single report byte.

use std::sync::Arc;
use std::time::Duration;

use covest_bdd::{BddManager, ReorderStats};
use covest_core::{CoverageError, CoverageEstimator, CoverageOptions, ReportRow, Verification};
use covest_smv::{CompiledModel, ModelError, Module};
use covest_telemetry::{self as telemetry, memory, progress, Clock, Stopwatch, Telemetry};

use crate::plan::{ParConfig, SignalTask};
use crate::pool::{DeckReport, ParError, ShardProfile, SignalOutcome};

/// One schedulable unit: one deck's machine and its coverage tasks.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Deck display name.
    pub deck: String,
    /// Number of properties in the deck's suite.
    pub num_properties: usize,
    /// The module this shard compiles on its private manager.
    pub module: Module,
    /// The coverage tasks in declaration order — also the execution
    /// order on the shard's manager.
    pub tasks: Vec<SignalTask>,
    /// Scheduling weight: the sum of the task cone widths in state bits;
    /// `usize::MAX` for a deck without signals (whole machine, taken
    /// first). Largest-first dispatch keeps the slowest shard off the
    /// tail of an otherwise drained queue.
    pub weight: usize,
    /// Wall-clock the planner spent on this deck. Timing only.
    pub plan_time: Duration,
}

/// Installs the telemetry memory sampler over `bdd` on the current
/// thread, so every span and event is stamped with the manager's
/// gauges. The closure holds its own manager handle (an `Rc` clone), so
/// a caller that outlives the manager's work **must**
/// [`memory::clear_mem_sampler`] or the sampler keeps the whole arena
/// alive. Every shard and `covest check` install it when profiling or
/// printing the progress heartbeat, whose `live=` gauge it feeds.
pub fn install_mem_sampler(bdd: &BddManager) {
    let gauges = bdd.clone();
    memory::set_mem_sampler(move || {
        let (live, bytes, peak) = gauges.mem_gauges();
        memory::MemSample {
            live_nodes: live as u64,
            arena_bytes: bytes as u64,
            peak_live_nodes: peak,
        }
    });
}

/// Compiles a deck machine on `bdd` and runs the [`startup_sift`],
/// whose statistics come back for `covest check`'s `reorder (sift):`
/// line. Every shard and `check`'s full deck compile through here;
/// `covest check` calls the two steps itself, to time them apart for
/// `--stats`.
///
/// # Errors
///
/// The deck's compile error.
pub fn compile_machine(
    bdd: &BddManager,
    module: &Module,
) -> Result<(CompiledModel, ReorderStats), ModelError> {
    let model = covest_smv::compile_module(bdd, module)?;
    Ok((model, startup_sift(bdd)))
}

/// The sifting pass after compile, under a `sift` span. It orders the
/// transition parts and the initial states' parts: the relation and
/// `init` are conjoined later, on first use.
pub fn startup_sift(bdd: &BddManager) -> ReorderStats {
    let _span = telemetry::span("sift");
    bdd.reduce_heap()
}

/// One coverage task on a verified machine: the Table-2 row of the
/// signal's coverage over its own cone, carrying the canonical sample of
/// up to `uncovered_limit` uncovered cone states, drawn under a `sample`
/// span.
///
/// # Errors
///
/// See [`CoverageEstimator::cover`].
pub fn cover_signal<'m>(
    estimator: &CoverageEstimator<'m>,
    verification: &mut Verification<'m>,
    deck: &str,
    task: &SignalTask,
    uncovered_limit: usize,
) -> Result<ReportRow, CoverageError> {
    let options = CoverageOptions {
        cone: Some(task.cone.clone()),
        ..Default::default()
    };
    let analysis = estimator.cover(verification, &task.signal, &options)?;
    let sample = {
        let _span = telemetry::span("sample");
        estimator.uncovered_states(&analysis, uncovered_limit)
    };
    Ok(ReportRow::from_analysis(deck, &analysis).with_uncovered_sample(sample))
}

/// Executes one shard on a fresh private manager, returning the deck's
/// report (its profile included when requested) or the deck's first
/// failure. Pure in (deck source, config). `queue_wait` is scheduling
/// observability only and reaches nothing but the (non-parity) profile.
/// `clock` is the batch-shared timeline every profile span is stamped
/// on.
pub(crate) fn run_shard(
    shard: &Shard,
    config: &ParConfig,
    queue_wait: Duration,
    clock: &Arc<dyn Clock>,
) -> Result<DeckReport, ParError> {
    if config.profile {
        telemetry::install(Telemetry::with_clock(clock.clone()));
    }
    let bdd = BddManager::new();
    if config.profile || config.progress {
        install_mem_sampler(&bdd);
    }
    if config.progress {
        progress::install_progress(progress::Progress::stderr(
            clock.clone(),
            format!("shard:{}", shard.deck),
        ));
    }
    let result = run_shard_phases(&bdd, shard, config);
    memory::clear_mem_sampler();
    progress::uninstall_progress();
    let recorder = telemetry::uninstall();
    let (mut report, compile, reach, solve) = result?;
    report.profiles.extend(recorder.map(|rec| {
        let (spans, mut counters) = rec.into_parts();
        for (name, value) in bdd.stats().pairs() {
            counters.add(name, value);
        }
        ShardProfile {
            deck: shard.deck.clone(),
            signals: shard.tasks.iter().map(|t| t.signal.clone()).collect(),
            queue_wait,
            compile,
            reach,
            solve,
            peak_by_phase: memory::peak_by_phase(&spans),
            counters,
            spans,
        }
    }));
    Ok(report)
}

/// The shard body proper: compile and sift, set up the checker and
/// verify once, compute the reachable states when there are tasks, then
/// cover the tasks in order — returning the deck's report plus the
/// compile, reach and solve wall-clocks. Split out of
/// [`run_shard`] so the recorder installed there is uninstalled on
/// *every* exit path. Stops at the first failure: later signals would be
/// discarded anyway, and stopping keeps that choice deterministic.
fn run_shard_phases(
    bdd: &BddManager,
    shard: &Shard,
    config: &ParConfig,
) -> Result<(DeckReport, Duration, Duration, Duration), ParError> {
    let deck = &shard.deck;
    let _shard_span = telemetry::span(format!("shard:{deck}"));
    if telemetry::is_active() {
        let signals: Vec<&str> = shard.tasks.iter().map(|t| t.signal.as_str()).collect();
        telemetry::span_label("signals", &signals.join("+"));
    }
    let sw = Stopwatch::start();
    let (model, _) = compile_machine(bdd, &shard.module).map_err(|e| ParError::Plan {
        deck: deck.clone(),
        message: e.to_string(),
    })?;
    let compile = sw.elapsed();

    let failed = |signal: Option<&String>, message: String| ParError::Task {
        deck: deck.clone(),
        signal: signal.cloned(),
        message,
    };
    let estimator = CoverageEstimator::new(&model.fsm);
    let sw = Stopwatch::start();
    let checker = estimator
        .checker(&model.fairness)
        .map_err(|e| failed(None, e.to_string()))?;
    let mut verification = estimator
        .verify(checker, &model.specs)
        .map_err(|e| failed(None, e.to_string()))?;
    // The first cover step would compute it; timed apart as `reach`.
    let reach = if shard.tasks.is_empty() {
        Duration::ZERO
    } else {
        let sw = Stopwatch::start();
        model.fsm.reachable();
        sw.elapsed()
    };
    let mut signals = Vec::with_capacity(shard.tasks.len());
    for task in &shard.tasks {
        let row = cover_signal(
            &estimator,
            &mut verification,
            deck,
            task,
            config.uncovered_limit,
        )
        .map_err(|e| failed(Some(&task.signal), e.to_string()))?;
        signals.push(SignalOutcome {
            deck: deck.clone(),
            signal: task.signal.clone(),
            row,
        });
    }
    let solve = sw.elapsed().saturating_sub(reach);
    let report = DeckReport {
        name: deck.clone(),
        num_properties: shard.num_properties,
        verdicts: verification.verdicts(),
        signals,
        plan_time: shard.plan_time,
        profiles: Vec::new(),
    };
    Ok((report, compile, reach, solve))
}
