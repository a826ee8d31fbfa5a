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
//! one-deck batch run on the caller's thread: the same shard body as
//! every `batch` deck — the union of the analyzed signals' cones of
//! influence, compiled and sifted once, verified once, then each
//! signal's coverage over its own cone — with the report printed between
//! the steps. There is one engine configuration: a sift after compile,
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
//!   table) after the run: `check`'s front-end block, or `batch`'s
//!   per-shard blocks with their phase times. Counter values are
//!   deterministic — byte-identical across `--jobs` values — while
//!   everything below the `-- timings --` line is wall-clock and
//!   excluded from any parity contract;
//! - `--trace FILE` writes the recorded span/event log (compile,
//!   the startup sift, the machine's one verification, each signal's
//!   coverage with the reachability it needs (per-BFS-step sizes) and
//!   its uncovered sample). In `batch` the file
//!   **streams**: each shard's span forest
//!   is written as its result arrives, one track per pool worker, so a
//!   long batch holds at most one shard's records in memory; the
//!   front-end's own track (tid 0) is appended at the end;
//! - `--trace-format jsonl|chrome` selects the trace flavor: native
//!   JSONL (default; one record per line, `tid` = track), or Chrome
//!   trace-event JSON — load the file in `ui.perfetto.dev` to see one
//!   timeline row per track, shard spans tagged with their signals and
//!   stolen flag, memory gauges in the args panel;
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
//! worker pool: `--jobs N` threads (`0` = one per core), each shard on
//! its own BDD manager. The planner parses the decks and computes their
//! cones on the same number of threads first. Batch output contains no
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
use covest_core::{json_string, CoverageEstimator, CoverageTable, ReportRow};
use covest_mc::Verdict;
use covest_par::{
    compile_machine, cover_signal, install_mem_sampler, plan_machine, run_batch,
    run_batch_with_trace, BatchReport, DeckJob, ParConfig, ShardProfile,
};
use covest_smv::{decl_bit_width, CompiledModel};
use covest_telemetry::chrome::{TraceFormat, TraceSink, TraceWriter};
use covest_telemetry::{
    self as telemetry, memory, progress, Counters, SpanRecord, Telemetry, WallClock, TIMINGS_MARKER,
};

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
    /// `true` when either observability flag asks for a recorder (and,
    /// in `batch`, for per-shard profiles).
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

/// Opens the streaming `--trace` writer over a buffered file, in the
/// selected `--trace-format`. Shard tracks stream into it as the pool
/// produces results; the front-end's own records land on tid 0 at the
/// end (see [`finish_trace`]).
fn open_trace(
    engine: &EngineArgs,
) -> Result<Option<TraceWriter<std::io::BufWriter<std::fs::File>>>, std::io::Error> {
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

/// Appends the front-end record forest as track 0 and closes the trace
/// file (surfacing any I/O error deferred during streaming).
fn finish_trace(
    engine: &EngineArgs,
    writer: Option<TraceWriter<std::io::BufWriter<std::fs::File>>>,
    records: &[SpanRecord],
) -> Result<(), std::io::Error> {
    if let Some(mut writer) = writer {
        if !records.is_empty() {
            writer.write_track(0, "front-end", records);
        }
        writer.finish()?;
        if let Some(path) = &engine.trace {
            say!("wrote {path}")?;
        }
    }
    Ok(())
}

/// Writes the coverage table as JSON, splicing the `stats` object in as
/// a sibling of `rows` when observability was collected.
fn write_json(
    engine: &EngineArgs,
    table: &CoverageTable,
    stats: Option<&str>,
) -> Result<(), std::io::Error> {
    if let Some(path) = &engine.json {
        let mut doc = table.to_json();
        if let Some(stats) = stats {
            let body = doc.strip_suffix("\n}\n").expect("table JSON shape");
            doc = format!("{body},\n  \"stats\": {stats}\n}}\n");
        }
        std::fs::write(path, doc)?;
        say!("wrote {path}")?;
    }
    Ok(())
}

/// Everything the observability flags produce in one place: the summary
/// text (deterministic counters above [`TIMINGS_MARKER`], wall-clock
/// below), the `--json` `stats` object, and the front-end's own span
/// forest (shard forests stream straight to the trace sink).
struct StatsOutput {
    text: String,
    json: String,
    records: Vec<SpanRecord>,
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

/// Uninstalls the recorder installed for `--stats`/`--trace` and folds
/// its output together with the per-shard profiles of `report` (`batch`)
/// or the engine counters of the front-end manager (`check`, whose one
/// machine runs the whole analysis).
///
/// The counter sections — the front-end counters and every per-shard
/// counter set — are deterministic: byte-identical across `--jobs`
/// values and across identical runs. Every `*_ms` value, the stolen
/// markers, the scheduler line, and everything below the
/// [`TIMINGS_MARKER`] line is wall-clock/scheduling observability.
fn collect_observability(
    engine: &EngineArgs,
    front_mgr: Option<&BddManager>,
    report: Option<&BatchReport>,
) -> Option<StatsOutput> {
    if !engine.profiling() {
        return None;
    }
    let rec = telemetry::uninstall().unwrap_or_default();
    let (records, mut front) = rec.into_parts();
    if let Some(mgr) = front_mgr {
        for (name, value) in mgr.stats().pairs() {
            front.add(name, value);
        }
    }
    let front_peak = memory::peak_by_phase(&records);
    let profiles: Vec<&ShardProfile> = report
        .iter()
        .flat_map(|r| r.decks.iter())
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

    let mut text = String::from("stats:\n  front-end\n");
    text.push_str(&front.render("    "));
    if !front_peak.is_empty() {
        text.push_str("    peak-live by phase\n");
        text.push_str(&front_peak.render("      "));
    }
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
    for deck in report.iter().flat_map(|r| r.decks.iter()) {
        let _ = writeln!(text, "  plan {}  {} ms", deck.name, fmt_ms(deck.plan_time));
    }
    for p in &profiles {
        let _ = writeln!(
            text,
            "  {}  queue {} ms  compile {} ms  reach {} ms  solve {} ms{}",
            profile_label(p),
            fmt_ms(p.queue_wait),
            fmt_ms(p.compile),
            fmt_ms(p.reach),
            fmt_ms(p.solve),
            if p.stolen { "  (stolen)" } else { "" },
        );
    }
    if let Some(rep) = report {
        let _ = writeln!(
            text,
            "  sched  workers {}  shards {}  steals {}",
            rep.sched.workers, rep.sched.shards, rep.sched.steals
        );
    }

    // The `stats` JSON object: deterministic fields first, `*_ms` last.
    let mut json = String::from("{\"front_end\": ");
    json.push_str(&counters_json(&front));
    if !front_peak.is_empty() {
        let _ = write!(
            json,
            ", \"front_end_peak_by_phase\": {}",
            counters_json(&front_peak)
        );
    }
    json.push_str(", \"shards\": [");
    for (i, p) in profiles.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let signals: Vec<String> = p.signals.iter().map(|s| json_string(s)).collect();
        let _ = write!(
            json,
            "{{\"deck\": {}, \"signals\": [{}], \"counters\": {}, \
             \"peak_live_nodes\": {}, \"peak_by_phase\": {}, \
             \"queue_ms\": {}, \"compile_ms\": {}, \"reach_ms\": {}, \"solve_ms\": {}, \
             \"stolen\": {}}}",
            json_string(&p.deck),
            signals.join(", "),
            counters_json(&p.counters),
            p.peak_live_nodes(),
            counters_json(&p.peak_by_phase),
            fmt_ms(p.queue_wait),
            fmt_ms(p.compile),
            fmt_ms(p.reach),
            fmt_ms(p.solve),
            p.stolen,
        );
    }
    json.push(']');
    if !merged_peak.is_empty() {
        let _ = write!(json, ", \"peak_by_phase\": {}", counters_json(&merged_peak));
    }
    if let Some(rep) = report {
        let plan_ms: f64 = rep
            .decks
            .iter()
            .map(|d| d.plan_time.as_secs_f64() * 1e3)
            .sum();
        let _ = write!(json, ", \"plan_ms\": {plan_ms:.3}");
    }
    json.push('}');

    Some(StatsOutput {
        text,
        json,
        records,
    })
}

/// Prints the `--stats` summary (the trace file streams separately; see
/// [`finish_trace`]).
fn emit_observability(engine: &EngineArgs, out: &StatsOutput) -> std::io::Result<()> {
    if engine.stats {
        emit(format_args!("\n{}", out.text))?;
    }
    Ok(())
}

/// The full deck of a cone-reduced `check` run, for the output that
/// lists every state bit: counterexamples, `--traces` paths and the
/// `--dot` dump.
struct FullDeck {
    bdd: BddManager,
    model: CompiledModel,
}

/// Returns the full deck, parsing `src` again and compiling and sifting
/// it on the first call with the shards' compile function, so it sifts
/// to the order a plain `check` of the deck finds.
fn full_deck<'a>(
    slot: &'a mut Option<FullDeck>,
    src: &str,
) -> Result<&'a FullDeck, Box<dyn std::error::Error>> {
    if slot.is_none() {
        let module = covest_smv::parse_module(src)?;
        let bdd = BddManager::new();
        let (model, _) = compile_machine(&bdd, &module)?;
        *slot = Some(FullDeck { bdd, model });
    }
    Ok(slot.as_ref().expect("compiled above"))
}

/// `covest check`: a one-deck batch on the caller's thread. It plans the
/// deck with the planner's per-deck step and runs the shard body —
/// compile and sift, verify once, cover each signal — printing between
/// the steps.
fn run_check(args: &CheckArgs) -> Result<bool, Box<dyn std::error::Error>> {
    // The recorder goes in before compile so the span log covers the
    // compile, reachability, verification and coverage phases.
    if args.engine.profiling() {
        telemetry::install(Telemetry::new());
    }
    // The heartbeat/watchdog channel covers every fixpoint of the run.
    if args.engine.progress {
        progress::install_progress(progress::Progress::stderr(
            std::sync::Arc::new(WallClock::new()),
            args.model_path.clone(),
        ));
    }
    let result = check_deck(args);
    // On every exit path: the memory sampler holds a handle on the
    // manager.
    memory::clear_mem_sampler();
    progress::uninstall_progress();
    result
}

/// [`run_check`]'s body.
fn check_deck(args: &CheckArgs) -> Result<bool, Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(&args.model_path)?;
    if args.engine.jobs != 1 {
        eprintln!("warning: --jobs has no effect on check; it sets batch's worker count");
    }
    let trace_writer = open_trace(&args.engine)?;
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
    let bdd = BddManager::new();
    // Stamp every span, event and heartbeat with this manager's gauges.
    if args.engine.profiling() || args.engine.progress {
        install_mem_sampler(&bdd);
    }
    let (model, sift) = compile_machine(&bdd, &machine.module)?;
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
    let mut verification = estimator.verify(estimator.checker(&model.fairness)?, &model.specs)?;
    let mut full: Option<FullDeck> = None;
    let holds = verification.holds().to_vec();
    for (spec, holds) in model.specs.iter().zip(holds) {
        say!("[{}] SPEC {spec}", if holds { "PASS" } else { "FAIL" })?;
        if holds {
            continue;
        }
        let verdict = if machine.reduced {
            let deck = full_deck(&mut full, &src)?;
            CoverageEstimator::new(&deck.model.fsm)
                .checker(&deck.model.fairness)?
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
    let mut table_out: Option<CoverageTable> = None;
    if args.coverage {
        if signals.is_empty() {
            eprintln!("warning: no OBSERVED signals; use --observed");
        }
        let mut table = CoverageTable::new();
        for task in &machine.tasks {
            // One canonical sample serves the row and the trace targets:
            // a longer sample extends a shorter one.
            let mut row = cover_signal(
                &estimator,
                &mut verification,
                &args.model_path,
                task,
                UNCOVERED_SAMPLE_LIMIT.max(args.traces),
            )?;
            let mut targets = row.uncovered_sample.clone();
            targets.truncate(args.traces);
            row.uncovered_sample.truncate(UNCOVERED_SAMPLE_LIMIT);
            print_signal_block(&row)?;
            if row.percent < 100.0 && args.traces > 0 {
                // The targets are states over the signal's cone, drawn on
                // the machine that covered it. Trace steps list every
                // state bit too, so a cone run replays the named targets
                // on the full deck.
                let traces = if machine.reduced {
                    let deck = full_deck(&mut full, &src)?;
                    CoverageEstimator::new(&deck.model.fsm).traces_to_named_states(&targets)
                } else {
                    estimator.traces_to_named_states(&targets)
                };
                for trace in traces {
                    say!("trace to uncovered state:\n{trace}")?;
                }
            }
            table.push(row);
        }
        say!("\n{table}")?;
        table_out = Some(table);
    }

    if let Some(path) = &args.dot {
        let dot = if machine.reduced {
            let deck = full_deck(&mut full, &src)?;
            deck.bdd
                .to_dot(&[("reachable", &deck.model.fsm.reachable())])
        } else {
            bdd.to_dot(&[("reachable", &model.fsm.reachable())])
        };
        std::fs::write(path, dot)?;
        say!("wrote {path}")?;
    }

    let all_passed = verification.all_hold();
    let stats_out = collect_observability(&args.engine, Some(&bdd), None);
    finish_trace(
        &args.engine,
        trace_writer,
        stats_out.as_ref().map_or(&[][..], |s| &s.records),
    )?;
    if let Some(table) = &table_out {
        write_json(
            &args.engine,
            table,
            stats_out.as_ref().map(|s| s.json.as_str()),
        )?;
    }
    if let Some(out) = &stats_out {
        emit_observability(&args.engine, out)?;
    }

    Ok(all_passed)
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
    // This recorder is the front end's own track (tid 0). Planning builds
    // no BDDs and records nothing; each shard records on its worker's
    // track.
    if args.engine.profiling() {
        telemetry::install(Telemetry::new());
    }
    let mut trace_writer = open_trace(&args.engine)?;
    let jobs = parse_joblist(&args.joblist)?;
    let config = par_config(&args.engine);
    let report = match trace_writer.as_mut() {
        Some(writer) => run_batch_with_trace(&jobs, &config, writer)?,
        None => run_batch(&jobs, &config)?,
    };

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
    let stats_out = collect_observability(&args.engine, None, Some(&report));
    finish_trace(
        &args.engine,
        trace_writer,
        stats_out.as_ref().map_or(&[][..], |s| &s.records),
    )?;
    write_json(
        &args.engine,
        &report.table(),
        stats_out.as_ref().map(|s| s.json.as_str()),
    )?;
    if let Some(out) = &stats_out {
        emit_observability(&args.engine, out)?;
    }
    Ok(report.all_hold())
}
