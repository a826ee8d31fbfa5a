//! The traced replay: re-runs one workload in-process through the same
//! public calls the CLI's default path makes, with a span around each
//! layer call.
//!
//! - `check`: `run_check`'s inline branch — parse, compile, one sifting
//!   pass, reachability as the care set, front-end verification, then per
//!   observed signal its cone, `CoverageEstimator::analyze`, the uncovered
//!   sample and the `--traces` replay.
//! - `batch`: the per-deck parse and cone calls `WorkPlan::plan` makes,
//!   then `WorkPlan::plan` and `WorkPlan::run` with `ParConfig::profile`
//!   on; the pool's `ShardProfile`s supply the shard phases, their
//!   verification spans and each shard manager's counters.
//!
//! Spans (name, start, end, parent) and a `BddManager::stats()` snapshot
//! at every span boundary stay in memory and are written as JSONL when the
//! replay ends, so counter deltas belong to spans. Nothing is traced
//! inside the program itself.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use covest_analyze::{cone_bit_names, reduce_module_multi, task_cone, DepGraph};
use covest_bdd::{BddManager, BddStats, ReorderConfig, ReorderMode};
use covest_core::{json_string, CoverageEstimator, CoverageOptions};
use covest_mc::ModelChecker;
use covest_par::{ParConfig, WorkPlan};
use covest_smv::{decl_bit_names, ImageConfig, ImageMethod, SimplifyConfig};

use crate::{batch_config, read_joblist, Error, UNCOVERED_SAMPLE_LIMIT};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
    open: Option<BddStats>,
    close: Option<BddStats>,
}

/// In-memory span recorder with BDD counter snapshots at every boundary.
struct Recorder {
    t0: Instant,
    mgr: Option<BddManager>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    arena_max: usize,
}

impl Recorder {
    fn new(mgr: Option<BddManager>) -> Self {
        Recorder {
            t0: Instant::now(),
            mgr,
            spans: Vec::new(),
            stack: Vec::new(),
            arena_max: 0,
        }
    }

    fn snapshot(&mut self) -> Option<BddStats> {
        let mgr = self.mgr.as_ref()?;
        let (_, bytes, _) = mgr.mem_gauges();
        self.arena_max = self.arena_max.max(bytes);
        Some(mgr.stats())
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let open = self.snapshot();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            open,
            close: None,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        self.spans[id].close = self.snapshot();
        out
    }

    fn durations(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        let name = name.to_owned();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end - s.start)
    }

    fn total(&self, name: &str) -> f64 {
        self.durations(name).sum()
    }

    fn max(&self, name: &str) -> f64 {
        self.durations(name).fold(0.0, f64::max)
    }

    /// The span forest as JSONL: one record per span, parent by index,
    /// with the BDD counter deltas accrued inside the span.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"parent\": {parent}, \
                 \"start_s\": {:.9}, \"end_s\": {:.9}, \"counters\": {{",
                json_string(s.name),
                s.start,
                s.end
            );
            if let (Some(open), Some(close)) = (s.open, s.close) {
                let deltas: Vec<String> = close
                    .pairs()
                    .iter()
                    .zip(open.pairs())
                    .map(|((name, after), (_, before))| {
                        format!("{}: {}", json_string(name), after.saturating_sub(before))
                    })
                    .collect();
                out.push_str(&deltas.join(", "));
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// What the replay reports about one deck, for replay parity.
struct DeckOutcome {
    name: String,
    verdicts: Vec<bool>,
    /// `(signal, percent, covered, space)`.
    signals: Vec<(String, f64, f64, f64)>,
}

/// Per-layer metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// A hit rate together with its base (the lookups it is taken over).
    fn rate(&mut self, rate: &'static str, lookups: &'static str, hits: u64, misses: u64) {
        let base = hits + misses;
        self.set(
            rate,
            if base == 0 {
                0.0
            } else {
                hits as f64 / base as f64
            },
        );
        self.set(lookups, base as f64);
    }

    fn bdd_counters(&mut self, s: &BddStats, arena_bytes: usize) {
        self.rate(
            "bdd.pair_hit_rate",
            "bdd.pair_lookups",
            s.pair_hits,
            s.pair_misses,
        );
        self.rate(
            "bdd.quant_hit_rate",
            "bdd.quant_lookups",
            s.quant_hits,
            s.quant_misses,
        );
        self.rate(
            "bdd.ite_hit_rate",
            "bdd.ite_lookups",
            s.ite_hits,
            s.ite_misses,
        );
        self.rate(
            "bdd.unique_hit_rate",
            "bdd.unique_lookups",
            s.unique_hits,
            s.unique_misses,
        );
        self.rate(
            "bdd.restrict_hit_rate",
            "bdd.restrict_lookups",
            s.restrict_hits,
            s.restrict_misses,
        );
        self.set("bdd.peak_live_nodes", s.peak_live_nodes as f64);
        self.set("bdd.gc_runs", s.gc_runs as f64);
        self.set("bdd.gc_reclaimed", s.gc_nodes_reclaimed as f64);
        self.set("bdd.arena_mb", arena_bytes as f64 / (1 << 20) as f64);
    }
}

/// Parses the CLI arguments the benchmark times for this workload.
enum Workload {
    Check { deck: String, traces: usize },
    Batch { joblist: String, jobs: usize },
}

fn parse_workload(args: &[String]) -> Result<Workload, Error> {
    let bad = || format!("unsupported workload arguments {args:?}");
    match args {
        [cmd, deck, flags @ ..]
            if cmd == "check" && flags.first().map(String::as_str) == Some("--coverage") =>
        {
            let traces = match &flags[1..] {
                [] => 0,
                [flag, n] if flag == "--traces" => n.parse()?,
                _ => return Err(bad().into()),
            };
            Ok(Workload::Check {
                deck: deck.clone(),
                traces,
            })
        }
        [cmd, joblist, flag, n] if cmd == "batch" && flag == "--jobs" => Ok(Workload::Batch {
            joblist: joblist.clone(),
            jobs: n.parse()?,
        }),
        _ => Err(bad().into()),
    }
}

/// `replay SPANS_OUT CLI_ARGS...`: replays the workload whose CLI
/// arguments follow (run from the workload directory), writes the span
/// forest to `SPANS_OUT` and returns the metrics plus the parity record.
pub fn run(spans_out: &Path, cli_args: &[String]) -> Result<String, Error> {
    let (rec, metrics, decks) = match parse_workload(cli_args)? {
        Workload::Check { deck, traces } => replay_check(&deck, traces)?,
        Workload::Batch { joblist, jobs } => replay_batch(Path::new(&joblist), jobs)?,
    };
    let total = rec.total("replay");
    std::fs::write(spans_out, rec.to_jsonl())?;

    let mut out = format!("{{\"total_s\": {total:.9}, \"metrics\": {{");
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, v)| format!("{}: {v:?}", json_string(name)))
        .collect();
    out.push_str(&fields.join(", "));
    out.push_str("}, \"decks\": [");
    let decks: Vec<String> = decks
        .iter()
        .map(|d| {
            let verdicts: String = d
                .verdicts
                .iter()
                .map(|&h| if h { 'P' } else { 'F' })
                .collect();
            let signals: Vec<String> = d
                .signals
                .iter()
                .map(|(signal, percent, covered, space)| {
                    format!(
                        "{{\"signal\": {}, \"percent\": \"{percent:.2}\", \
                         \"covered\": \"{covered}\", \"space\": \"{space}\"}}",
                        json_string(signal)
                    )
                })
                .collect();
            format!(
                "{{\"name\": {}, \"verdicts\": \"{verdicts}\", \"signals\": [{}]}}",
                json_string(&d.name),
                signals.join(", ")
            )
        })
        .collect();
    out.push_str(&decks.join(", "));
    out.push_str("]}");
    Ok(out)
}

/// A numeric field of a pool span or event record.
fn field(fields: &[(String, u64)], name: &str) -> Option<u64> {
    fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

fn replay_check(deck: &str, traces: usize) -> Result<(Recorder, Metrics, Vec<DeckOutcome>), Error> {
    let src = std::fs::read_to_string(deck)?;
    let bdd = BddManager::new();
    bdd.set_reorder_config(ReorderConfig {
        mode: ReorderMode::Sift,
        ..Default::default()
    });
    let image = ImageConfig {
        method: ImageMethod::Partitioned,
        simplify: SimplifyConfig::Restrict,
        ..Default::default()
    };
    let mut rec = Recorder::new(Some(bdd.clone()));
    let mut m = Metrics::default();
    let (outcome, properties) = rec.span("replay", |rec| -> Result<_, Error> {
        let module = rec.span("smv.parse", |_| covest_smv::parse_module(&src))?;
        let model = rec.span("smv.compile", |_| {
            covest_smv::compile_module_with(&bdd, &module, image)
        })?;
        m.set("smv.state_bits", model.fsm.num_state_bits() as f64);
        m.set(
            "smv.clusters",
            model.fsm.image_engine().clusters().len() as f64,
        );
        let sift = rec.span("bdd.sift", |_| bdd.reduce_heap());
        m.set("bdd.sift_swaps", sift.swaps as f64);
        m.set("bdd.sift_nodes_before", sift.before as f64);
        m.set("bdd.sift_nodes_after", sift.after as f64);

        let mut mc = ModelChecker::new(&model.fsm);
        for fair in &model.fairness {
            mc.add_fairness(fair)?;
        }
        let reach = rec.span("fsm.reach", |_| model.fsm.install_reachable_care());
        m.set("fsm.reach_nodes", reach.node_count() as f64);
        mc.set_care(reach);
        let verdicts = rec.span("mc.verify", |rec| {
            model
                .specs
                .iter()
                .map(|spec| rec.span("mc.check", |_| mc.check(&spec.clone().into())))
                .map(|v| v.map(|v| v.holds()))
                .collect::<Result<Vec<bool>, _>>()
        })?;
        m.set("mc.checks", verdicts.len() as f64);

        let estimator = CoverageEstimator::new(&model.fsm);
        let graph = rec.span("analyze.graph", |_| DepGraph::new(&module));
        let mut signals = Vec::new();
        let (mut cone_bits, mut verify_s, mut coverage_s, mut coverage_nodes) =
            (0usize, 0.0, 0.0, 0);
        for signal in &model.observed {
            rec.span("signal", |rec| -> Result<(), Error> {
                let cone = rec.span("analyze.cone", |_| {
                    task_cone(&module, &graph, signal).map(|cone| cone_bit_names(&module, &cone))
                })?;
                cone_bits += cone.len();
                let options = CoverageOptions {
                    fairness: model.fairness.clone(),
                    cone: Some(cone),
                    ..Default::default()
                };
                let analysis = rec.span("core.analyze", |_| {
                    estimator.analyze(signal, &model.specs, &options)
                })?;
                verify_s += analysis.verify_time.as_secs_f64();
                coverage_s += analysis.coverage_time.as_secs_f64();
                coverage_nodes = coverage_nodes.max(analysis.coverage_nodes);
                rec.span("core.sample", |_| {
                    let universe = estimator.universe(options.cone.as_deref());
                    let uncovered = analysis.uncovered();
                    let sample =
                        estimator.sample_states_over(&uncovered, &universe, UNCOVERED_SAMPLE_LIMIT);
                    std::hint::black_box(sample);
                    if analysis.percent() < 100.0 {
                        let found = estimator.traces_to_states_over(&uncovered, &universe, traces);
                        std::hint::black_box(found);
                    }
                });
                signals.push((
                    signal.clone(),
                    analysis.percent(),
                    analysis.covered_count,
                    analysis.space_count,
                ));
                Ok(())
            })?;
        }
        m.set("analyze.cone_bits", cone_bits as f64);
        let per_signal_bits = model.fsm.num_state_bits() * model.observed.len().max(1);
        m.set(
            "analyze.cone_frac",
            cone_bits as f64 / per_signal_bits as f64,
        );
        m.set("core.verify_s", verify_s);
        m.set("core.coverage_s", coverage_s);
        m.set("core.coverage_nodes", coverage_nodes as f64);
        let properties = model.specs.len() * model.observed.len();
        m.set("core.properties", properties as f64);
        let outcome = DeckOutcome {
            name: deck.to_owned(),
            verdicts,
            signals,
        };
        Ok((outcome, properties))
    })?;

    m.set("smv.parse_s", rec.total("smv.parse"));
    m.set("smv.compile_s", rec.total("smv.compile"));
    m.set("bdd.sift_s", rec.total("bdd.sift"));
    m.set("fsm.reach_s", rec.total("fsm.reach"));
    m.set("mc.verify_s", rec.total("mc.verify"));
    m.set("mc.check_max_s", rec.max("mc.check"));
    m.set(
        "analyze.cone_s",
        rec.total("analyze.graph") + rec.total("analyze.cone"),
    );
    let analyze_s = rec.total("core.analyze");
    m.set("core.analyze_s", analyze_s);
    m.set(
        "core.per_property_ms",
        analyze_s * 1e3 / properties.max(1) as f64,
    );
    m.set("core.sample_s", rec.total("core.sample"));
    m.bdd_counters(&bdd.stats(), rec.arena_max);
    set_par_absent(&mut m);
    Ok((rec, m, vec![outcome]))
}

/// The pool metrics on a workload whose default path never enters the
/// pool (`covest check` with one signal runs coverage inline).
fn set_par_absent(m: &mut Metrics) {
    for name in [
        "par.plan_s",
        "par.run_s",
        "par.workers",
        "par.shards",
        "par.steals",
        "par.busy_s",
        "par.idle_frac",
        "par.queue_wait_max_s",
        "par.longest_shard_s",
        "par.shard_compile_s",
        "par.shard_reach_s",
        "par.shard_solve_s",
        "par.shard_peak_live_max",
    ] {
        m.set(name, 0.0);
    }
}

fn replay_batch(
    joblist: &Path,
    jobs: usize,
) -> Result<(Recorder, Metrics, Vec<DeckOutcome>), Error> {
    let decks = read_joblist(joblist)?;
    let config = ParConfig {
        jobs,
        profile: true,
        ..batch_config()
    };
    let mut rec = Recorder::new(None);
    let (mut state_bits, mut task_bits) = (0usize, 0usize);
    let mut modules = Vec::with_capacity(decks.len());
    let report = rec.span("replay", |rec| -> Result<_, Error> {
        // The static per-deck calls `WorkPlan::plan` makes, one by one,
        // so the smv and analyze layers get times of their own; the plan
        // below repeats them inside `par.plan`.
        for deck in &decks {
            let module = rec.span("smv.parse", |_| covest_smv::parse_module(&deck.source))?;
            let graph = rec.span("analyze.graph", |_| DepGraph::new(&module));
            let mut cones = Vec::with_capacity(module.observed.len());
            for signal in &module.observed {
                let cone = rec.span("signal", |rec| {
                    rec.span("analyze.cone", |_| {
                        task_cone(&module, &graph, &signal.name).map(|cone| {
                            let bits = cone_bit_names(&module, &cone);
                            (cone, bits)
                        })
                    })
                })?;
                cones.push(cone);
            }
            // The cone fraction's base: every task's full-deck width, as
            // on the check workloads (state bits × observed signals).
            let bits = module.vars.iter().flat_map(decl_bit_names).count();
            state_bits += bits;
            task_bits += bits * module.observed.len().max(1);
            modules.push((module, cones));
        }
        let plan = rec.span("par.plan", |_| WorkPlan::plan(&decks, &config))?;
        // `run_batch` sends unprofiled fleets of one shard (or under 16
        // cone bits) to its sequential baseline; the replay must time the
        // pool only when the untraced CLI run takes it too.
        let fleet_bits: usize = plan.task_size_estimates().iter().sum();
        if plan.num_shards() <= 1 || fleet_bits < 16 {
            return Err("fleet too small for the pool path the CLI takes".into());
        }
        let report = rec.span("par.run", |_| plan.run(&config))?;
        Ok((report, plan.num_shards(), fleet_bits))
    })?;
    let (report, shards, cone_bits) = report;

    let mut m = Metrics::default();
    m.set("smv.state_bits", state_bits as f64);
    m.set("smv.parse_s", rec.total("smv.parse"));
    m.set(
        "analyze.cone_s",
        rec.total("analyze.graph") + rec.total("analyze.cone"),
    );
    m.set("analyze.cone_bits", cone_bits as f64);
    m.set(
        "analyze.cone_frac",
        cone_bits as f64 / task_bits.max(1) as f64,
    );
    // The shards compile each deck's cone-reduced module, which the pool
    // does not report on; compile it once more, after the replay (outside
    // its total), to count the transition clusters.
    let mut clusters = 0;
    for (module, cones) in &modules {
        let mut union = BTreeSet::new();
        for (cone, _) in cones {
            union.extend(cone.iter().cloned());
        }
        let signals: Vec<String> = module.observed.iter().map(|o| o.name.clone()).collect();
        let reduced = reduce_module_multi(module, &union, &signals);
        let model = covest_smv::compile_module_with(&BddManager::new(), &reduced, config.image)?;
        clusters += model.fsm.image_engine().clusters().len();
    }
    m.set("smv.clusters", clusters as f64);

    let profiles: Vec<_> = report
        .decks
        .iter()
        .flat_map(|d| d.profiles.iter())
        .collect();
    // Sums over every shard's spans and counters: on this workload the
    // smv/fsm/mc/core calls run inside the pool's shards.
    let span_total = |pred: &dyn Fn(&str) -> bool| -> f64 {
        profiles
            .iter()
            .flat_map(|p| p.spans.iter())
            .filter(|s| pred(&s.name))
            .filter_map(|s| s.end.map(|end| (end - s.start).as_secs_f64()))
            .sum()
    };
    let counter = |name: &str| -> u64 { profiles.iter().map(|p| p.counters.get(name)).sum() };
    let secs = |d: std::time::Duration| d.as_secs_f64();

    m.set("smv.compile_s", span_total(&|n| n == "compile"));
    m.set("bdd.sift_swaps", counter("bdd_reorder_swaps") as f64);
    m.set(
        "bdd.sift_nodes_before",
        counter("bdd_reorder_size_before") as f64,
    );
    m.set(
        "bdd.sift_nodes_after",
        counter("bdd_reorder_size_after") as f64,
    );
    // A shard's compile phase is `compile_module_with` (the "compile"
    // span) followed by the startup sifting pass.
    m.set(
        "bdd.sift_s",
        profiles.iter().map(|p| secs(p.compile)).sum::<f64>() - span_total(&|n| n == "compile"),
    );
    m.set("fsm.reach_s", profiles.iter().map(|p| secs(p.reach)).sum());
    // Each shard's last BFS step carries the size of its reachable set.
    m.set(
        "fsm.reach_nodes",
        profiles
            .iter()
            .filter_map(|p| p.spans.iter().rev().find(|s| s.name == "bfs_step"))
            .filter_map(|s| field(&s.fields, "visited_nodes"))
            .max()
            .unwrap_or(0) as f64,
    );
    // Verification runs once per signal, inside the estimator's "verify"
    // span (ModelChecker::check per property): there is no front-end pass,
    // so mc.verify_s equals core.verify_s here, and mc.check_max_s is the
    // longest single verification pass.
    let verify_s = span_total(&|n| n == "verify");
    m.set("mc.verify_s", verify_s);
    m.set(
        "mc.checks",
        profiles
            .iter()
            .flat_map(|p| p.spans.iter())
            .filter(|s| s.name == "verify")
            .filter_map(|s| field(&s.fields, "properties"))
            .sum::<u64>() as f64,
    );
    m.set(
        "mc.check_max_s",
        profiles
            .iter()
            .flat_map(|p| p.spans.iter())
            .filter(|s| s.name == "verify")
            .filter_map(|s| s.end.map(|end| (end - s.start).as_secs_f64()))
            .fold(0.0, f64::max),
    );
    let analyze_s = span_total(&|n| n.starts_with("signal:"));
    m.set("core.analyze_s", analyze_s);
    m.set("core.verify_s", verify_s);
    m.set("core.coverage_s", span_total(&|n| n == "coverage"));
    // The solve phase outside the per-signal analyses: the uncovered
    // sample plus handing the uncovered set back to the pool.
    let solve_s: f64 = profiles.iter().map(|p| secs(p.solve)).sum();
    m.set("core.sample_s", (solve_s - analyze_s).max(0.0));
    let properties: usize = report
        .decks
        .iter()
        .map(|d| d.num_properties * d.signals.len())
        .sum();
    m.set(
        "core.per_property_ms",
        analyze_s * 1e3 / properties.max(1) as f64,
    );
    m.set(
        "core.coverage_nodes",
        report
            .outcomes()
            .map(|o| o.row.coverage_nodes)
            .max()
            .unwrap_or(0) as f64,
    );
    m.set("core.properties", properties as f64);
    let stats = BddStats {
        unique_hits: counter("bdd_unique_hits"),
        unique_misses: counter("bdd_unique_misses"),
        ite_hits: counter("bdd_ite_hits"),
        ite_misses: counter("bdd_ite_misses"),
        quant_hits: counter("bdd_quant_hits"),
        quant_misses: counter("bdd_quant_misses"),
        pair_hits: counter("bdd_pair_hits"),
        pair_misses: counter("bdd_pair_misses"),
        restrict_hits: counter("bdd_restrict_hits"),
        restrict_misses: counter("bdd_restrict_misses"),
        gc_runs: counter("bdd_gc_runs"),
        gc_nodes_reclaimed: counter("bdd_gc_nodes_reclaimed"),
        peak_live_nodes: profiles
            .iter()
            .map(|p| p.peak_live_nodes())
            .max()
            .unwrap_or(0),
        ..Default::default()
    };
    // Each shard's arena gauge is stamped on its span boundaries; report
    // the largest single shard arena.
    let arena_max = profiles
        .iter()
        .flat_map(|p| p.spans.iter())
        .flat_map(|s| s.fields.iter())
        .filter(|(name, _)| name == "mem_bytes" || name == "mem_bytes_close")
        .map(|&(_, bytes)| bytes)
        .max()
        .unwrap_or(0);
    m.bdd_counters(&stats, arena_max as usize);

    let run_s = rec.total("par.run");
    let busy: f64 = profiles
        .iter()
        .map(|p| secs(p.compile) + secs(p.reach) + secs(p.solve))
        .sum();
    let workers = report.sched.workers;
    m.set("par.plan_s", rec.total("par.plan"));
    m.set("par.run_s", run_s);
    m.set("par.workers", workers as f64);
    m.set("par.shards", shards as f64);
    m.set("par.steals", report.sched.steals as f64);
    m.set("par.busy_s", busy);
    m.set(
        "par.idle_frac",
        1.0 - busy / (workers.max(1) as f64 * run_s),
    );
    m.set(
        "par.queue_wait_max_s",
        profiles
            .iter()
            .map(|p| secs(p.queue_wait))
            .fold(0.0, f64::max),
    );
    m.set(
        "par.longest_shard_s",
        profiles
            .iter()
            .map(|p| secs(p.compile) + secs(p.reach) + secs(p.solve))
            .fold(0.0, f64::max),
    );
    m.set(
        "par.shard_compile_s",
        profiles.iter().map(|p| secs(p.compile)).sum(),
    );
    m.set(
        "par.shard_reach_s",
        profiles.iter().map(|p| secs(p.reach)).sum(),
    );
    m.set(
        "par.shard_solve_s",
        profiles.iter().map(|p| secs(p.solve)).sum(),
    );
    m.set(
        "par.shard_peak_live_max",
        profiles
            .iter()
            .map(|p| p.peak_live_nodes())
            .max()
            .unwrap_or(0) as f64,
    );

    let outcomes = report
        .decks
        .iter()
        .map(|d| DeckOutcome {
            name: d.name.clone(),
            verdicts: d.verdicts.iter().map(|v| v.holds).collect(),
            signals: d
                .signals
                .iter()
                .map(|o| {
                    (
                        o.signal.clone(),
                        o.row.percent,
                        o.row.covered_states,
                        o.row.space_states,
                    )
                })
                .collect(),
        })
        .collect();
    Ok((rec, m, outcomes))
}
