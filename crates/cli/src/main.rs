//! `covest` — check SMV-dialect model decks and estimate property
//! coverage, reproducing (and parallelizing) the workflow of the DAC'99
//! paper.
//!
//! ```text
//! covest check MODEL.smv [--coverage] [--observed SIGNAL]...
//!                        [--traces N] [--strict] [--dot FILE]
//!                        [--json FILE]
//! covest batch JOBLIST   [--strict] [--jobs N] [--json FILE]
//! covest lint DECK.smv... [--strict]
//! ```
//!
//! `check` verifies every `SPEC` under the deck's `FAIRNESS` constraints
//! and, with `--coverage`, estimates coverage for each `OBSERVED` signal
//! (or the `--observed` overrides) and lists uncovered states. It is a
//! one-deck batch run on the caller's thread: the same shard run
//! (`covest_par::ShardRun`) as every `batch` deck — the union of the
//! analyzed signals' cones of influence, compiled and sifted once,
//! verified once, then each signal's coverage over its own cone — with
//! the report printed between the steps. There is one engine
//! configuration: a sift after compile,
//! no don't-care simplification, a garbage collection at the end of
//! verification and of each signal's coverage when the BDD has at least
//! doubled, and always the cone. Output that lists every state bit
//! (counterexamples, `--traces` paths, the `--dot` dump) comes from the
//! full deck, which `check` compiles only when that output is asked for
//! and the cone dropped a variable.
//!
//! - `--traces N` prints shortest input sequences to up to `N` uncovered
//!   states per signal;
//! - `--strict` exits nonzero if any property fails;
//! - `--dot FILE` dumps the reachable-state BDD in Graphviz format;
//! - `--json FILE` additionally writes the coverage table — rows plus
//!   per-property verdicts and the canonical uncovered-state sample — as
//!   machine-readable JSON;
//! - `--stats` prints an engine-counter summary (unique-table and memo
//!   hit rates, fixpoint iterations, image calls, a peak-live-by-phase
//!   table) after the run: one block per shard, then each deck's plan
//!   time and each shard's phase times — `check`'s one deck exactly as
//!   a one-deck `batch` prints it. Counter values are deterministic —
//!   byte-identical across `--jobs` values — while everything below the
//!   `-- timings --` line is wall-clock and excluded from any parity
//!   contract;
//! - `--trace FILE` writes the recorded span/event log (compile,
//!   the startup sift, the machine's one verification, each signal's
//!   coverage with the reachability it needs (per-BFS-step sizes) and
//!   its uncovered sample). The file **streams**: each pool worker
//!   writes a shard's span forest on its own track (tid `worker + 1`;
//!   `check`'s one shard is worker 0's) as soon as the shard is done,
//!   so a long batch holds at most one shard's records per worker in
//!   memory, and a failed run still leaves a closed file;
//! - `--trace-format jsonl|chrome` selects the trace flavor: native
//!   JSONL (default; one record per line, `tid` = track), or Chrome
//!   trace-event JSON — load the file in `ui.perfetto.dev` to see one
//!   timeline row per track, shard spans tagged with their signals,
//!   memory gauges in the args panel;
//! - `--progress` prints a throttled heartbeat to stderr while the
//!   fixpoints run (phase, iteration, BDD size, support width, live
//!   nodes) and arms a watchdog that reports any fixpoint whose iterate
//!   has stopped changing (same size and support for many iterations)
//!   together with a snapshot of the open spans.
//!
//! `--stats`, `--trace` and `--progress` only observe: the run they
//! watch is the one the default flags execute. Each peak-live-by-phase
//! table is the fold of the memory samples stamped on every span
//! open/close and BFS step, and its maximum reconciles exactly with its
//! manager's `bdd_peak_live_nodes` counter.
//!
//! `batch` runs a *fleet* of decks: `JOBLIST` names one deck per line
//! (`PATH [SIGNAL ...]`, `#` comments; relative paths resolve against
//! the joblist's directory), and all decks × signals drain through one
//! worker pool: `--jobs N` threads (`0` = one per core; the calling
//! thread is one of them), which take the shards largest-first, each
//! shard on its own BDD manager. The planner parses the decks and
//! computes their cones the same way first. Batch output contains no
//! timings or node counts, so two runs with different `--jobs` are
//! byte-identical.
//!
//! `lint` statically checks decks without building any BDDs: undefined
//! names, `DEFINE` cycles, missing `next` assignments, dead variables,
//! constant signals, observed signals outside every property's cone.
//! Findings print in a stable order (declaration order, then line);
//! `--strict` fails on warnings too. Exit codes: 0 clean, 1 findings,
//! 2 usage/I-O error.
//!
//! A reader that closes stdout early (`covest … | head -1`) ends the
//! output: every command then stops quietly with exit status 141, the
//! status a shell reports for a writer killed by `SIGPIPE`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use covest_analyze::lint_source;
use covest_bdd::BddManager;
use covest_core::{json_string, CoverageEstimator, ReportRow};
use covest_mc::Verdict;
use covest_par::{
    compile_machine, plan_machine, run_batch, BatchReport, DeckJob, DeckReport, ParConfig,
    SchedStats, ShardProfile, ShardRun, SignalOutcome,
};
use covest_smv::{decl_bit_width, CompiledModel};
use covest_telemetry::chrome::{TraceFormat, TraceSink, TraceWriter};
use covest_telemetry::{Counters, Stopwatch, TIMINGS_MARKER};

/// Writes to stdout: every byte the CLI prints goes through here, via
/// `say!`. Unlike `print!`, a failed write comes back as an error
/// instead of a panic, so a reader that closes the pipe early simply
/// ends the output (see [`main`]).
fn emit(text: std::fmt::Arguments) -> std::io::Result<()> {
    std::io::stdout().write_fmt(text)
}

/// `println!` through [`emit`]: evaluates to the write's `io::Result`.
macro_rules! say {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The exit status after a reader closed stdout early: what a shell
/// reports for a writer killed by `SIGPIPE`.
const CLOSED_STDOUT: u8 = 141;

/// `true` when `e` is a stdout write that found the pipe closed.
fn is_closed_stdout(e: &(dyn std::error::Error + 'static)) -> bool {
    e.downcast_ref::<std::io::Error>()
        .is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe)
}

/// Flags shared by `check` and `batch`.
struct EngineArgs {
    jobs: usize,
    json: Option<String>,
    stats: bool,
    trace: Option<String>,
    trace_format: TraceFormat,
    progress: bool,
}

impl Default for EngineArgs {
    fn default() -> Self {
        EngineArgs {
            jobs: 1,
            json: None,
            stats: false,
            trace: None,
            trace_format: TraceFormat::Jsonl,
            progress: false,
        }
    }
}

impl EngineArgs {
    /// `true` when either observability flag asks for the shards'
    /// profiles.
    fn profiling(&self) -> bool {
        self.stats || self.trace.is_some()
    }
}

struct CheckArgs {
    model_path: String,
    coverage: bool,
    observed: Vec<String>,
    traces: usize,
    strict: bool,
    dot: Option<String>,
    engine: EngineArgs,
}

struct BatchArgs {
    joblist: String,
    strict: bool,
    engine: EngineArgs,
}

struct LintArgs {
    paths: Vec<String>,
    strict: bool,
}

enum Cmd {
    Check(CheckArgs),
    Batch(BatchArgs),
    Lint(LintArgs),
}

fn usage() -> ! {
    eprintln!(
        "usage: covest check MODEL.smv [--coverage] [--observed SIGNAL]... \
         [--traces N] [--strict] [--dot FILE] \
         [--json FILE] [--stats] [--trace FILE] \
         [--trace-format jsonl|chrome] [--progress]\n\
         \u{20}      covest batch JOBLIST [--strict] \
         [--jobs N] [--json FILE] [--stats] [--trace FILE] \
         [--trace-format jsonl|chrome] [--progress]\n\
         \u{20}      covest lint DECK.smv... [--strict]\n\
         \n\
         --jobs N        batch only: run the fleet's shards on N worker\n\
         \u{20}               threads (0 = one per core; default 1)\n\
         --json FILE     write the coverage table (rows, verdicts,\n\
         \u{20}               uncovered sample) as JSON\n\
         --stats         print the engine-counter summary (deterministic\n\
         \u{20}               counters above `-- timings --`, wall-clock below)\n\
         --trace FILE    write the span/event log (compile, reachability,\n\
         \u{20}               per-signal fixpoints), streamed per batch shard\n\
         --trace-format jsonl|chrome   trace flavor: native JSONL\n\
         \u{20}               (default) or Chrome trace-event JSON for\n\
         \u{20}               ui.perfetto.dev (`perfetto` is an alias)\n\
         --progress      print a throttled fixpoint heartbeat to stderr\n\
         \u{20}               and flag stalled fixpoints (watchdog)\n\
         \n\
         JOBLIST lines: PATH [SIGNAL ...]   (# comments; relative paths\n\
         resolve against the joblist's directory)\n\
         \n\
         lint exit codes: 0 = clean (warnings allowed without --strict),\n\
         \u{20}                1 = errors, or warnings under --strict,\n\
         \u{20}                2 = usage or I/O error"
    );
    std::process::exit(2);
}

/// Parses a flag shared by both subcommands; returns `false` if the flag
/// is not an engine flag.
fn parse_engine_flag(
    engine: &mut EngineArgs,
    flag: &str,
    argv: &mut impl Iterator<Item = String>,
) -> bool {
    fn parsed<T: std::str::FromStr>(value: Option<String>) -> T
    where
        T::Err: std::fmt::Display,
    {
        match value.map(|v| v.parse::<T>()) {
            Some(Ok(v)) => v,
            Some(Err(e)) => {
                eprintln!("error: {e}");
                usage()
            }
            None => usage(),
        }
    }
    match flag {
        "--jobs" => match argv.next().and_then(|n| n.parse().ok()) {
            Some(n) => engine.jobs = n,
            None => {
                eprintln!("error: --jobs expects a thread count (0 = one per core)");
                usage()
            }
        },
        "--json" => match argv.next() {
            Some(p) => engine.json = Some(p),
            None => usage(),
        },
        "--stats" => engine.stats = true,
        "--trace" => match argv.next() {
            Some(p) => engine.trace = Some(p),
            None => usage(),
        },
        "--trace-format" => engine.trace_format = parsed(argv.next()),
        "--progress" => engine.progress = true,
        _ => return false,
    }
    true
}

fn parse_args() -> Cmd {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("check") => {
            let mut args = CheckArgs {
                model_path: String::new(),
                coverage: false,
                observed: Vec::new(),
                traces: 0,
                strict: false,
                dot: None,
                engine: EngineArgs::default(),
            };
            while let Some(a) = argv.next() {
                if parse_engine_flag(&mut args.engine, a.as_str(), &mut argv) {
                    continue;
                }
                match a.as_str() {
                    "--coverage" => args.coverage = true,
                    "--strict" => args.strict = true,
                    "--observed" => match argv.next() {
                        Some(s) => args.observed.push(s),
                        None => usage(),
                    },
                    "--traces" => match argv.next().and_then(|n| n.parse().ok()) {
                        Some(n) => args.traces = n,
                        None => usage(),
                    },
                    "--dot" => match argv.next() {
                        Some(p) => args.dot = Some(p),
                        None => usage(),
                    },
                    _ if args.model_path.is_empty() && !a.starts_with('-') => {
                        args.model_path = a;
                    }
                    _ => usage(),
                }
            }
            if args.model_path.is_empty() {
                usage();
            }
            Cmd::Check(args)
        }
        Some("batch") => {
            let mut args = BatchArgs {
                joblist: String::new(),
                strict: false,
                engine: EngineArgs::default(),
            };
            while let Some(a) = argv.next() {
                if parse_engine_flag(&mut args.engine, a.as_str(), &mut argv) {
                    continue;
                }
                match a.as_str() {
                    "--strict" => args.strict = true,
                    _ if args.joblist.is_empty() && !a.starts_with('-') => {
                        args.joblist = a;
                    }
                    _ => usage(),
                }
            }
            if args.joblist.is_empty() {
                usage();
            }
            Cmd::Batch(args)
        }
        Some("lint") => {
            let mut paths = Vec::new();
            let mut strict = false;
            for a in argv {
                match a.as_str() {
                    "--strict" => strict = true,
                    _ if !a.starts_with('-') => paths.push(a),
                    _ => usage(),
                }
            }
            if paths.is_empty() {
                usage();
            }
            Cmd::Lint(LintArgs { paths, strict })
        }
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let (result, strict) = match parse_args() {
        Cmd::Check(args) => (run_check(&args), args.strict),
        Cmd::Batch(args) => (run_batch_cmd(&args), args.strict),
        Cmd::Lint(args) => {
            return run_lint(&args).unwrap_or_else(|e| {
                if is_closed_stdout(&e) {
                    ExitCode::from(CLOSED_STDOUT)
                } else {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            })
        }
    };
    match result {
        Ok(all_passed) => {
            if strict && !all_passed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) if is_closed_stdout(&*e) => ExitCode::from(CLOSED_STDOUT),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `covest lint`: statically checks decks and prints findings in the
/// stable order (declaration order, then line). Exit code 0 when clean
/// (warnings allowed without `--strict`), 1 on errors or on warnings
/// under `--strict`, 2 on usage or I/O problems; a failed stdout write
/// is the `Err`.
fn run_lint(args: &LintArgs) -> std::io::Result<ExitCode> {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for path in &args.paths {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        let report = lint_source(&src);
        for d in &report.diagnostics {
            say!(
                "{path}:{}: {} [{}] {}",
                d.line,
                d.severity,
                d.rule,
                d.message
            )?;
        }
        errors += report.errors();
        warnings += report.warnings();
    }
    say!(
        "lint: {} decks, {errors} errors, {warnings} warnings",
        args.paths.len()
    )?;
    Ok(if errors > 0 || (args.strict && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Prints `check`'s per-signal coverage block: vacuity warnings, then —
/// below 100% — the canonical uncovered-state listing.
fn print_signal_block(row: &ReportRow) -> std::io::Result<()> {
    for v in &row.verdicts {
        if v.vacuous {
            say!(
                "warning: SPEC {} passes vacuously (an implication never triggers)",
                v.formula
            )?;
        }
    }
    if row.percent < 100.0 {
        say!("\nuncovered states for `{}`:", row.signal)?;
        for state in &row.uncovered_sample {
            say!("  {}", ReportRow::render_state(state))?;
        }
    }
    Ok(())
}

/// How many uncovered states each report samples. One constant feeds
/// both `check` and the worker pool's `uncovered_limit`, so `check` and
/// `batch` sample the same states.
const UNCOVERED_SAMPLE_LIMIT: usize = 10;

fn par_config(engine: &EngineArgs) -> ParConfig {
    ParConfig {
        jobs: engine.jobs,
        uncovered_limit: UNCOVERED_SAMPLE_LIMIT,
        profile: engine.profiling(),
        progress: engine.progress,
        ..Default::default()
    }
}

/// The streaming `--trace` writer over a buffered file.
type TraceFile = TraceWriter<std::io::BufWriter<std::fs::File>>;

/// Opens the `--trace` writer in the selected `--trace-format`. Each
/// shard's forest streams into it as its track when the shard is done.
/// A run that fails drops the writer, which closes the file: the tracks
/// already written stay, a loadable diagnosis.
fn open_trace(engine: &EngineArgs) -> Result<Option<TraceFile>, std::io::Error> {
    match &engine.trace {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            Ok(Some(TraceWriter::new(
                std::io::BufWriter::new(file),
                engine.trace_format,
            )))
        }
        None => {
            if engine.trace_format != TraceFormat::Jsonl {
                eprintln!("warning: --trace-format has no effect without --trace");
            }
            Ok(None)
        }
    }
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn counters_json(c: &Counters) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in c.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {value}", json_string(name));
    }
    out.push('}');
    out
}

fn profile_label(p: &ShardProfile) -> String {
    if p.signals.is_empty() {
        format!("shard {} (verify)", p.deck)
    } else {
        format!("shard {} signals {}", p.deck, p.signals.join("+"))
    }
}

/// The `--stats` summary text and the `--json` `stats` object of a run's
/// deck reports — `batch`'s fleet, or `check`'s one deck — rendered the
/// same way for both commands: one block per shard profile.
///
/// The counter sections — every per-shard counter set and peak table —
/// are deterministic: byte-identical across `--jobs` values and across
/// identical runs. Every `*_ms` value, the scheduler line, and
/// everything below the [`TIMINGS_MARKER`] line is
/// wall-clock/scheduling observability.
fn collect_observability(engine: &EngineArgs, report: &BatchReport) -> Option<(String, String)> {
    if !engine.profiling() {
        return None;
    }
    let profiles: Vec<&ShardProfile> = report
        .decks
        .iter()
        .flat_map(|d| d.profiles.iter())
        .collect();
    // The fleet-wide attribution table: per phase, the largest peak any
    // shard saw there. Its maximum is the largest per-shard manager
    // high-water mark (each shard's own table reconciles exactly with
    // that shard's `bdd_peak_live_nodes`).
    let mut merged_peak = Counters::new();
    for p in &profiles {
        for (phase, value) in p.peak_by_phase.iter() {
            merged_peak.set_max(phase, value);
        }
    }

    let mut text = String::from("stats:\n");
    for p in &profiles {
        let _ = writeln!(text, "  {}", profile_label(p));
        text.push_str(&p.counters.render("    "));
        let (before, after) = p.reorder_sizes();
        let _ = writeln!(
            text,
            "    peak live {} nodes  reorder {before} -> {after} nodes",
            p.peak_live_nodes()
        );
        if !p.peak_by_phase.is_empty() {
            text.push_str("    peak-live by phase\n");
            text.push_str(&p.peak_by_phase.render("      "));
        }
    }
    if !merged_peak.is_empty() {
        text.push_str("  peak-live by phase (max across shards)\n");
        text.push_str(&merged_peak.render("    "));
    }
    let _ = writeln!(text, "{TIMINGS_MARKER}");
    for deck in &report.decks {
        let _ = writeln!(text, "  plan {}  {} ms", deck.name, fmt_ms(deck.plan_time));
    }
    for p in &profiles {
        let _ = write!(
            text,
            "  {}  queue {} ms  compile {} ms  sift {} ms  verify {} ms  reach {} ms  solve {} ms",
            profile_label(p),
            fmt_ms(p.queue_wait),
            fmt_ms(p.compile),
            fmt_ms(p.sift),
            fmt_ms(p.verify),
            fmt_ms(p.reach),
            fmt_ms(p.solve),
        );
        for (signal, d) in p.signals.iter().zip(&p.signal_solve) {
            let _ = write!(text, "  solve {signal} {} ms", fmt_ms(*d));
        }
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "  sched  workers {}  shards {}",
        report.sched.workers, report.sched.shards
    );

    // The `stats` JSON object: deterministic fields first, `*_ms` last.
    let mut json = String::from("{\"shards\": [");
    for (i, p) in profiles.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let signals: Vec<String> = p.signals.iter().map(|s| json_string(s)).collect();
        let signal_solve: Vec<String> = p.signal_solve.iter().map(|d| fmt_ms(*d)).collect();
        let _ = write!(
            json,
            "{{\"deck\": {}, \"signals\": [{}], \"counters\": {}, \
             \"peak_live_nodes\": {}, \"peak_by_phase\": {}, \
             \"queue_ms\": {}, \"compile_ms\": {}, \"sift_ms\": {}, \"verify_ms\": {}, \
             \"reach_ms\": {}, \"solve_ms\": {}, \"signal_solve_ms\": [{}]}}",
            json_string(&p.deck),
            signals.join(", "),
            counters_json(&p.counters),
            p.peak_live_nodes(),
            counters_json(&p.peak_by_phase),
            fmt_ms(p.queue_wait),
            fmt_ms(p.compile),
            fmt_ms(p.sift),
            fmt_ms(p.verify),
            fmt_ms(p.reach),
            fmt_ms(p.solve),
            signal_solve.join(", "),
        );
    }
    json.push(']');
    if !merged_peak.is_empty() {
        let _ = write!(json, ", \"peak_by_phase\": {}", counters_json(&merged_peak));
    }
    let plan_ms: f64 = report
        .decks
        .iter()
        .map(|d| d.plan_time.as_secs_f64() * 1e3)
        .sum();
    let _ = write!(json, ", \"plan_ms\": {plan_ms:.3}}}");
    Some((text, json))
}

/// What both commands do once the run is over: close the trace
/// (surfacing any I/O error deferred during streaming), write the
/// `--json` coverage table (when `table`) with the `stats` object
/// spliced in as a sibling of `rows`, and print the `--stats` summary.
fn report_observability(
    engine: &EngineArgs,
    trace: Option<TraceFile>,
    report: &BatchReport,
    table: bool,
) -> std::io::Result<()> {
    let stats = collect_observability(engine, report);
    if let (Some(writer), Some(path)) = (trace, &engine.trace) {
        writer.finish()?;
        say!("wrote {path}")?;
    }
    if let (true, Some(path)) = (table, &engine.json) {
        let mut doc = report.table().to_json();
        if let Some((_, json)) = &stats {
            let body = doc.strip_suffix("\n}\n").expect("table JSON shape");
            doc = format!("{body},\n  \"stats\": {json}\n}}\n");
        }
        std::fs::write(path, doc)?;
        say!("wrote {path}")?;
    }
    match &stats {
        Some((text, _)) if engine.stats => emit(format_args!("\n{text}")),
        _ => Ok(()),
    }
}

/// Returns the full deck of a cone-reduced `check` run, for the output
/// that lists every state bit (counterexamples, `--traces` paths and the
/// `--dot` dump), parsing `src` again and compiling and sifting it on
/// the first call with the shards' compile function, so it sifts to the
/// order a plain `check` of the deck finds.
fn full_deck<'a>(
    slot: &'a mut Option<CompiledModel>,
    src: &str,
) -> Result<&'a CompiledModel, Box<dyn std::error::Error>> {
    if slot.is_none() {
        let module = covest_smv::parse_module(src)?;
        *slot = Some(compile_machine(&BddManager::new(), &module)?.0);
    }
    Ok(slot.as_ref().expect("compiled above"))
}

/// `covest check`: a one-deck batch on the caller's thread. It plans the
/// deck with the planner's per-deck step and drives the shard run —
/// compile and sift, verify once, cover each signal — printing between
/// the steps, then reports the run as a one-deck batch report.
fn run_check(args: &CheckArgs) -> Result<bool, Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(&args.model_path)?;
    if args.engine.jobs != 1 {
        eprintln!("warning: --jobs has no effect on check; it sets batch's worker count");
    }
    let mut trace = open_trace(&args.engine)?;
    let planning = Stopwatch::start();
    let module = covest_smv::parse_module(&src)?;
    let signals: Vec<String> = if !args.coverage {
        Vec::new()
    } else if args.observed.is_empty() {
        module.observed.iter().map(|o| o.name.clone()).collect()
    } else {
        args.observed.clone()
    };
    let full_bits: usize = module.vars.iter().map(|d| decl_bit_width(&d.ty)).sum();
    let machine = plan_machine(module, &signals)?;
    let plan_time = planning.elapsed();
    let run = ShardRun::start(&args.model_path, &machine.tasks, &par_config(&args.engine));
    let (model, sift) = run.compile(&machine.module)?;
    let state_bits = if machine.reduced {
        format!(
            "{full_bits} state bits ({} in the cone of influence)",
            model.fsm.num_state_bits()
        )
    } else {
        format!("{} state bits", model.fsm.num_state_bits())
    };
    say!(
        "model `{}`: {state_bits}, {} properties, {} fairness constraints, \
         {} transition parts",
        args.model_path,
        model.specs.len(),
        model.fairness.len(),
        model.fsm.trans_parts().len(),
    )?;
    say!(
        "reorder (sift): {} -> {} live nodes ({} swaps)",
        sift.before,
        sift.after,
        sift.swaps
    )?;

    // The JSON report is the coverage table; without --coverage there is
    // no table and the flag would silently write nothing.
    if args.engine.json.is_some() && !args.coverage {
        eprintln!("warning: --json has no effect without --coverage");
    }

    // Verification, once, on the compiled machine. Its verdicts are
    // exact on the cone; a counterexample lists every state bit, so a
    // cone run builds it on the full deck, the machine that prints it.
    let estimator = CoverageEstimator::new(&model.fsm);
    let mut verification = run.verify(&estimator, &model)?;
    let mut full: Option<CompiledModel> = None;
    let holds = verification.holds().to_vec();
    for (spec, holds) in model.specs.iter().zip(holds) {
        say!("[{}] SPEC {spec}", if holds { "PASS" } else { "FAIL" })?;
        if holds {
            continue;
        }
        let verdict = if machine.reduced {
            let deck = full_deck(&mut full, &src)?;
            CoverageEstimator::new(&deck.fsm)
                .checker(&deck.fairness)?
                .check(&spec.clone().into())?
        } else {
            verification.checker_mut().check(&spec.clone().into())?
        };
        if let Verdict::Fails {
            counterexample: Some(trace),
            ..
        } = verdict
        {
            say!("{trace}")?;
        }
    }

    // Coverage on the same machine, one signal at a time over its own
    // cone.
    run.reach(&model);
    if args.coverage && signals.is_empty() {
        eprintln!("warning: no OBSERVED signals; use --observed");
    }
    let mut outcomes = Vec::with_capacity(machine.tasks.len());
    for task in &machine.tasks {
        // One canonical sample serves the row and the trace targets: a
        // longer sample extends a shorter one.
        let limit = UNCOVERED_SAMPLE_LIMIT.max(args.traces);
        let mut row = run.cover(&estimator, &mut verification, task, limit)?;
        let mut targets = row.uncovered_sample.clone();
        targets.truncate(args.traces);
        row.uncovered_sample.truncate(UNCOVERED_SAMPLE_LIMIT);
        print_signal_block(&row)?;
        if row.percent < 100.0 && args.traces > 0 {
            // The targets are states over the signal's cone, drawn on
            // the machine that covered it. Trace steps list every state
            // bit too, so a cone run replays the named targets on the
            // full deck.
            let traces = if machine.reduced {
                let deck = full_deck(&mut full, &src)?;
                CoverageEstimator::new(&deck.fsm).traces_to_named_states(&targets)
            } else {
                estimator.traces_to_named_states(&targets)
            };
            for trace in traces {
                say!("trace to uncovered state:\n{trace}")?;
            }
        }
        outcomes.push(SignalOutcome {
            deck: args.model_path.clone(),
            signal: task.signal.clone(),
            row,
        });
    }
    let mut report = BatchReport {
        decks: vec![DeckReport {
            name: args.model_path.clone(),
            num_properties: model.specs.len(),
            verdicts: verification.verdicts(),
            signals: outcomes,
            plan_time,
            profiles: run.finish().into_iter().collect(),
        }],
        sched: SchedStats {
            workers: 1,
            shards: 1,
            ..Default::default()
        },
    };
    if args.coverage {
        say!("\n{}", report.table())?;
    }

    if let Some(path) = &args.dot {
        let deck = if machine.reduced {
            full_deck(&mut full, &src)?
        } else {
            &model
        };
        let dot = deck
            .fsm
            .manager()
            .to_dot(&[("reachable", &deck.fsm.reachable())]);
        std::fs::write(path, dot)?;
        say!("wrote {path}")?;
    }

    // The forest goes on worker 0's track, as a one-deck batch's does.
    if let Some(sink) = trace.as_mut() {
        for profile in &mut report.decks[0].profiles {
            profile.stream(sink, 0);
        }
    }
    report_observability(&args.engine, trace, &report, args.coverage)?;
    Ok(report.all_hold())
}

/// Parses a joblist: one deck per line — `PATH [SIGNAL ...]` — with `#`
/// comments; relative paths resolve against the joblist's directory.
fn parse_joblist(path: &str) -> Result<Vec<DeckJob>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let base = std::path::Path::new(path)
        .parent()
        .map(std::path::Path::to_path_buf)
        .unwrap_or_default();
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let deck = fields.next().expect("nonempty line has a first field");
        let deck_path = {
            let p = std::path::Path::new(deck);
            if p.is_absolute() {
                p.to_path_buf()
            } else {
                base.join(p)
            }
        };
        let source = std::fs::read_to_string(&deck_path).map_err(|e| {
            format!(
                "{path}:{}: cannot read deck `{}`: {e}",
                lineno + 1,
                deck_path.display()
            )
        })?;
        jobs.push(DeckJob {
            name: deck.to_owned(),
            source,
            observed: fields.map(str::to_owned).collect(),
        });
    }
    if jobs.is_empty() {
        return Err(format!("joblist `{path}` lists no decks").into());
    }
    Ok(jobs)
}

fn run_batch_cmd(args: &BatchArgs) -> Result<bool, Box<dyn std::error::Error>> {
    let mut trace = open_trace(&args.engine)?;
    let jobs = parse_joblist(&args.joblist)?;
    let config = par_config(&args.engine);
    let sink = trace.as_mut().map(|w| w as &mut dyn TraceSink);
    let report = run_batch(&jobs, &config, sink)?;

    // Every line below is deterministic (no timings, no node counts, no
    // thread counts), so batch output is byte-identical across `--jobs`.
    say!(
        "batch: {} decks, {} signal analyses",
        report.decks.len(),
        report.outcomes().count(),
    )?;
    let mut held = 0usize;
    let mut total = 0usize;
    for deck in &report.decks {
        say!("deck {}: {} properties", deck.name, deck.num_properties)?;
        for v in &deck.verdicts {
            let mark = if v.holds { "PASS" } else { "FAIL" };
            say!("  [{mark}] SPEC {}", v.formula)?;
            held += usize::from(v.holds);
            total += 1;
        }
        for outcome in &deck.signals {
            let row = &outcome.row;
            for v in &row.verdicts {
                if v.vacuous {
                    say!(
                        "  warning: SPEC {} passes vacuously for `{}`",
                        v.formula,
                        row.signal
                    )?;
                }
            }
            say!(
                "  signal {}: {:.2}% covered ({} of {} states)",
                row.signal,
                row.percent,
                row.covered_states,
                row.space_states
            )?;
            for state in row.uncovered_sample.iter().take(5) {
                say!("    uncovered: {}", ReportRow::render_state(state))?;
            }
        }
    }
    say!(
        "batch: {held}/{total} properties hold across {} decks, {} signals analyzed",
        report.decks.len(),
        report.outcomes().count(),
    )?;
    report_observability(&args.engine, trace, &report, true)?;
    Ok(report.all_hold())
}
