//! Deck shards: the pool's unit of isolation and scheduling, and the one
//! shard run both front ends drive.
//!
//! A **shard** is one deck's machine: the union of its analyzed signals'
//! cones (the full deck when the cone keeps everything; see
//! [`crate::plan_machine`]) and its coverage tasks. Each shard is one
//! [`ShardRun`] on a fresh private [`covest_bdd::BddManager`]: compile
//! and sift, verify the suite once, compute the reachable states, then
//! cover the deck's signals **in declaration order** on that machine,
//! each reusing the verification's memoized satisfaction sets. `covest
//! check` drives the same run on its own thread, printing between the
//! steps. The shard's results are therefore a pure function of (deck
//! source, config) — which worker runs it, and when, cannot reach a
//! single report byte.

use std::sync::Arc;
use std::time::Duration;

use covest_bdd::{BddManager, ReorderStats};
use covest_core::{CoverageError, CoverageEstimator, CoverageOptions, ReportRow, Verification};
use covest_smv::{CompiledModel, ModelError, Module};
use covest_telemetry::{self as telemetry, memory, progress, Clock, SpanGuard, Telemetry};

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

/// Compiles a deck machine on `bdd` and runs the startup sift under a
/// `sift` span, whose statistics come back for `covest check`'s
/// `reorder (sift):` line. The sift orders the transition parts and the
/// initial states' parts: the relation and `init` are conjoined later,
/// on first use. Every shard and `check`'s full deck compile through
/// here.
///
/// # Errors
///
/// The deck's compile error.
pub fn compile_machine(
    bdd: &BddManager,
    module: &Module,
) -> Result<(CompiledModel, ReorderStats), ModelError> {
    let model = covest_smv::compile_module(bdd, module)?;
    let sift = {
        let _span = telemetry::span("sift");
        bdd.reduce_heap()
    };
    Ok((model, sift))
}

/// One deck machine's run on a fresh private manager: the shard body,
/// driven one step at a time — [`ShardRun::compile`],
/// [`ShardRun::verify`], [`ShardRun::reach`], then [`ShardRun::cover`]
/// per signal — and ended by [`ShardRun::finish`]. The pool runs every
/// shard this way, and `covest check` runs its one deck this way,
/// printing between the steps.
///
/// The run installs the observers [`ParConfig`] asks for on the calling
/// thread, and nothing else: with [`ParConfig::profile`] a recorder,
/// whose forest hangs under a `shard:DECK` root span; with `profile` or
/// [`ParConfig::progress`] the memory sampler over the run's manager;
/// with `progress` the stderr heartbeat, labeled with the deck's name.
/// Dropping the run — after
/// `finish`, or early on an error path — uninstalls them all.
pub struct ShardRun {
    bdd: BddManager,
    deck: String,
    signals: Vec<String>,
    queue_wait: Duration,
    /// The `shard:DECK` root span, while the run records.
    root: Option<SpanGuard>,
}

impl ShardRun {
    /// Starts the run of `deck`'s machine, which analyzes `tasks`, on
    /// [`ParConfig`]'s injected clock or a fresh wall clock.
    pub fn start(deck: &str, tasks: &[SignalTask], config: &ParConfig) -> ShardRun {
        ShardRun::on_clock(deck, tasks, config, &config.batch_clock(), Duration::ZERO)
    }

    /// [`ShardRun::start`] on the batch's shared `clock`, for a shard
    /// the pool took `queue_wait` after it started.
    pub(crate) fn on_clock(
        deck: &str,
        tasks: &[SignalTask],
        config: &ParConfig,
        clock: &Arc<dyn Clock>,
        queue_wait: Duration,
    ) -> ShardRun {
        if config.profile {
            telemetry::install(Telemetry::with_clock(clock.clone()));
        }
        let bdd = BddManager::new();
        // Stamps every span, event and heartbeat with the manager's
        // gauges. The closure holds a manager handle: `Drop` clears it.
        if config.profile || config.progress {
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
        if config.progress {
            progress::install_progress(progress::Progress::stderr(clock.clone(), deck));
        }
        let signals: Vec<String> = tasks.iter().map(|t| t.signal.clone()).collect();
        let root = telemetry::is_active().then(|| {
            let root = telemetry::span(format!("shard:{deck}"));
            telemetry::span_label("signals", &signals.join("+"));
            root
        });
        ShardRun {
            bdd,
            deck: deck.to_owned(),
            signals,
            queue_wait,
            root,
        }
    }

    /// Compiles the machine on the run's manager and sifts it
    /// ([`compile_machine`]).
    ///
    /// # Errors
    ///
    /// The deck's compile error.
    pub fn compile(&self, module: &Module) -> Result<(CompiledModel, ReorderStats), ModelError> {
        compile_machine(&self.bdd, module)
    }

    /// Sets the checker up under the machine's fairness constraints and
    /// verifies its suite once.
    ///
    /// # Errors
    ///
    /// See [`CoverageEstimator::checker`] and [`CoverageEstimator::verify`].
    pub fn verify<'m>(
        &self,
        estimator: &CoverageEstimator<'m>,
        model: &CompiledModel,
    ) -> Result<Verification<'m>, CoverageError> {
        estimator.verify(estimator.checker(&model.fairness)?, &model.specs)
    }

    /// Computes the machine's reachable states, which the first signal's
    /// coverage would compute; a run without signals computes none.
    pub fn reach(&self, model: &CompiledModel) {
        if !self.signals.is_empty() {
            model.fsm.reachable();
        }
    }

    /// Covers one signal on the verified machine: the Table-2 row of
    /// its coverage over its own cone, carrying the canonical sample of
    /// up to `uncovered_limit` uncovered cone states, drawn under a
    /// `sample` span.
    ///
    /// # Errors
    ///
    /// See [`CoverageEstimator::cover`].
    pub fn cover<'m>(
        &self,
        estimator: &CoverageEstimator<'m>,
        verification: &mut Verification<'m>,
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
        Ok(ReportRow::from_analysis(&self.deck, &analysis).with_uncovered_sample(sample))
    }

    /// Ends the run: closes the root span and returns the shard's
    /// profile (`None` unless [`ParConfig::profile`] is set).
    ///
    /// The phase times are read off the span forest, which the run's one
    /// clock stamped. Each step leaves its spans directly under the
    /// root, in run order: `compile` and `sift`, `verify`,
    /// `reachability`, then `signal:NAME` and `sample` per signal. The
    /// first of each name counts, so work a caller adds between the
    /// steps (a full-deck compile for a counterexample) cannot pose as
    /// the shard's. `compile` runs from `compile`'s open to `sift`'s
    /// close, `verify` from `sift`'s close to `verify`'s (the checker's
    /// set-up included), `solve` from `sift`'s close to the root's, less
    /// `reach`, and each signal from its `signal:` span's open to the
    /// close of the `sample` span after it.
    pub fn finish(mut self) -> Option<ShardProfile> {
        drop(self.root.take());
        let (spans, mut counters) = telemetry::uninstall()?.into_parts();
        for (name, value) in self.bdd.stats().pairs() {
            counters.add(name, value);
        }
        let steps: Vec<(&str, Duration, Duration)> = spans
            .iter()
            .filter(|r| r.parent == Some(0))
            .map(|r| (r.name.as_str(), r.start, r.end.unwrap_or(r.start)))
            .collect();
        let first = |name: &str| {
            let step = steps.iter().find(|&&(n, ..)| n == name);
            step.map_or((Duration::ZERO, Duration::ZERO), |&(_, start, end)| {
                (start, end)
            })
        };
        let ((compiling, _), (sifting, sifted)) = (first("compile"), first("sift"));
        let ((_, verified), (reaching, reached)) = (first("verify"), first("reachability"));
        let reach = reached.saturating_sub(reaching);
        let signal_solve = (0..steps.len())
            .filter(|&i| steps[i].0.starts_with("signal:"))
            .map(|i| match steps.get(i + 1) {
                Some(&("sample", _, sampled)) => sampled.saturating_sub(steps[i].1),
                _ => steps[i].2.saturating_sub(steps[i].1),
            })
            .collect();
        let closed = spans[0].end.unwrap_or_default();
        Some(ShardProfile {
            deck: std::mem::take(&mut self.deck),
            signals: std::mem::take(&mut self.signals),
            queue_wait: self.queue_wait,
            compile: sifted.saturating_sub(compiling),
            sift: sifted.saturating_sub(sifting),
            reach,
            solve: closed.saturating_sub(sifted).saturating_sub(reach),
            verify: verified.saturating_sub(sifted),
            signal_solve,
            peak_by_phase: memory::peak_by_phase(&spans),
            counters,
            spans,
        })
    }
}

impl Drop for ShardRun {
    fn drop(&mut self) {
        drop(self.root.take());
        memory::clear_mem_sampler();
        progress::uninstall_progress();
        telemetry::uninstall();
    }
}

/// Executes one shard as a [`ShardRun`] on the batch's `clock`,
/// returning the deck's report (its profile included when requested)
/// or the deck's first failure. Pure in (deck source, config).
/// `queue_wait` is scheduling observability only and reaches nothing but
/// the (non-parity) profile. Stops at the first failure: later signals
/// would be discarded anyway, and stopping keeps that choice
/// deterministic.
pub(crate) fn run_shard(
    shard: &Shard,
    config: &ParConfig,
    queue_wait: Duration,
    clock: &Arc<dyn Clock>,
) -> Result<DeckReport, ParError> {
    let deck = &shard.deck;
    let failed = |signal: Option<&String>, e: CoverageError| ParError::Task {
        deck: deck.clone(),
        signal: signal.cloned(),
        message: e.to_string(),
    };
    let run = ShardRun::on_clock(deck, &shard.tasks, config, clock, queue_wait);
    let (model, _) = run.compile(&shard.module).map_err(|e| ParError::Plan {
        deck: deck.clone(),
        message: e.to_string(),
    })?;
    let estimator = CoverageEstimator::new(&model.fsm);
    let mut verification = run
        .verify(&estimator, &model)
        .map_err(|e| failed(None, e))?;
    run.reach(&model);
    let signals = shard
        .tasks
        .iter()
        .map(|task| {
            let row = run
                .cover(&estimator, &mut verification, task, config.uncovered_limit)
                .map_err(|e| failed(Some(&task.signal), e))?;
            Ok(SignalOutcome {
                deck: deck.clone(),
                signal: task.signal.clone(),
                row,
            })
        })
        .collect::<Result<_, ParError>>()?;
    Ok(DeckReport {
        name: deck.clone(),
        num_properties: shard.num_properties,
        verdicts: verification.verdicts(),
        signals,
        plan_time: shard.plan_time,
        profiles: run.finish().into_iter().collect(),
    })
}
