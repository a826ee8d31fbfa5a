//! Deck shards: the pool's unit of isolation, scheduling and stealing.
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
//!
//! Scheduling: shards are sorted largest-first by their static cone
//! weights and dealt round-robin onto per-worker deques. A worker drains
//! its own deque front-first; an idle worker **steals whole shards**
//! (never individual signals) from the fronts of its peers' deques.
//! Stealing moves a shard between threads unexecuted — its private
//! manager does not exist yet — so determinism survives by construction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use covest_bdd::{BddManager, ReorderStats};
use covest_core::{CoverageError, CoverageEstimator, CoverageOptions, ReportRow, Verification};
use covest_smv::{CompiledModel, ModelError, Module};
use covest_telemetry::chrome::TraceSink;
use covest_telemetry::{self as telemetry, memory, progress, Clock, Stopwatch, Telemetry};

use crate::plan::{ParConfig, SignalTask, WorkPlan};
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
    /// `usize::MAX` for a deck without signals (whole machine,
    /// dispatched first). Largest-first dispatch keeps the slowest shard
    /// off the tail of an otherwise drained queue.
    pub weight: usize,
    /// Wall-clock the planner spent on this deck. Timing only.
    pub plan_time: Duration,
}

/// What executing one shard yields: the deck's report, its profile
/// included when requested, or the deck's first failure.
pub(crate) type ShardResult = Result<DeckReport, ParError>;

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

/// Compiles a deck machine on `bdd` and runs the startup sifting pass
/// (under a `sift` span), whose statistics come back for `covest
/// check`'s `reorder (sift):` line. The sift orders the transition
/// parts: the relation is conjoined later, by the first image. Every
/// shard, `covest check` and `check`'s full deck compile through here.
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

/// Executes one shard on a fresh private manager. Pure in (deck source,
/// config). `queue_wait`, `stolen` and `worker` are scheduling
/// observability only and reach nothing but the (non-parity) profile.
/// `clock` is the batch-shared timeline every profile span is stamped
/// on.
pub(crate) fn run_shard(
    shard: &Shard,
    config: &ParConfig,
    queue_wait: Duration,
    stolen: bool,
    worker: usize,
    clock: &Arc<dyn Clock>,
) -> ShardResult {
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
            stolen,
            worker,
            peak_by_phase: memory::peak_by_phase(&spans),
            counters,
            spans,
        }
    }));
    Ok(report)
}

/// The shard body proper: compile and sift, set up the checker, verify
/// once, then cover the tasks in order — returning the deck's report
/// plus the compile, reach and solve wall-clocks. Split out of
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
    let reach = sw.elapsed();

    let sw = Stopwatch::start();
    let mut verification = estimator
        .verify(checker, &model.specs)
        .map_err(|e| failed(None, e.to_string()))?;
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
    let solve = sw.elapsed();
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

/// Runs every shard of a plan on `config.jobs` workers with whole-shard
/// stealing, returning per-shard results (indexed by shard), the steal
/// count, and the worker count actually spawned.
///
/// Shards are sorted largest-first by weight (stable by shard index) and
/// dealt round-robin onto one deque per worker; each deque entry carries
/// its enqueue timestamp, so a shard's queue wait is exactly
/// (dequeue − enqueue) — bounded by the pool's wall-clock. A worker pops
/// its own deque front-first and, once empty, scans its peers' deques
/// (cyclically from its right neighbor) and steals their front — the
/// largest shard still queued there, which moves the most work per
/// steal. All work is enqueued before the workers start, so a full
/// unsuccessful scan means the pool is drained and the worker exits.
///
/// When `sink` is given, each finished shard's span forest is streamed
/// out of the result loop as it arrives — one track per **worker**
/// (tid = worker index + 1; tid 0 is reserved for the driver), batches
/// in per-worker execution order — and dropped from the profile, so
/// trace memory stays bounded by one shard whatever the batch size.
/// The shard root span is tagged with its `stolen` flag at stream time
/// (a scheduling fact, so it must stay out of the parity-checked
/// in-memory profile).
pub(crate) fn run_pool(
    plan: &WorkPlan,
    config: &ParConfig,
    mut sink: Option<&mut dyn TraceSink>,
) -> (Vec<Option<ShardResult>>, usize, usize) {
    let workers = plan.shards.len().min(config.effective_jobs()).max(1);
    let mut order: Vec<usize> = (0..plan.shards.len()).collect();
    order.sort_by_key(|&s| std::cmp::Reverse(plan.shards[s].weight));
    let clock = config.batch_clock();
    let deques: Vec<Mutex<VecDeque<(usize, Duration)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (rank, &s) in order.iter().enumerate() {
        deques[rank % workers]
            .lock()
            .expect("deque lock")
            .push_back((s, clock.now()));
    }
    let steals = AtomicUsize::new(0);
    let mut slots: Vec<Option<ShardResult>> = Vec::new();
    slots.resize_with(plan.shards.len(), || None);

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, ShardResult)>();
        for w in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let steals = &steals;
            let clock = &clock;
            scope.spawn(move || loop {
                let mut picked = deques[w]
                    .lock()
                    .expect("deque lock")
                    .pop_front()
                    .map(|entry| (entry, false));
                if picked.is_none() {
                    for offset in 1..workers {
                        let victim = (w + offset) % workers;
                        let entry = deques[victim].lock().expect("deque lock").pop_front();
                        if let Some(entry) = entry {
                            steals.fetch_add(1, Ordering::Relaxed);
                            picked = Some((entry, true));
                            break;
                        }
                    }
                }
                let Some(((s, enqueued), stolen)) = picked else {
                    break;
                };
                let queue_wait = clock.now().saturating_sub(enqueued);
                let result = run_shard(&plan.shards[s], config, queue_wait, stolen, w, clock);
                if tx.send((s, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (s, mut result) in rx {
            if let Some(sink) = sink.as_deref_mut() {
                for profile in result.iter_mut().flat_map(|r| r.profiles.iter_mut()) {
                    if let Some(root) = profile.spans.first_mut() {
                        root.fields
                            .push(("stolen".to_owned(), u64::from(profile.stolen)));
                        sink.write_track(
                            profile.worker as u64 + 1,
                            &format!("worker {}", profile.worker),
                            &profile.spans,
                        );
                        profile.spans = Vec::new();
                    }
                }
            }
            slots[s] = Some(result);
        }
    });

    (slots, steals.into_inner(), workers)
}
