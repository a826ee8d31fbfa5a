//! Measures what cone-of-influence reduction buys: the worker pool
//! running the bundled decks plus sized pipeline decks (which carry a
//! cone-prunable debug register chain) with `coi` on versus off.
//!
//! For every `(deck, signal)` task the report records the static cone
//! width against the deck's total state bits, the worker manager's peak
//! live node count in both modes, and the whole-fleet wall-clock.
//! Before any number is reported, the two modes' reports are asserted
//! identical on every deterministic field — percentages bit-for-bit,
//! verdicts, uncovered samples, and the uncovered sets themselves
//! (imported into one shared manager). The acceptance gate on top:
//! at least one sized pipeline deck must show a peak-live-node
//! reduction, since COI prunes its debug chain away entirely.
//!
//! Writes `BENCH_coi.json` at the workspace root (or the path given as
//! the first argument).

use std::fmt::Write as _;

use covest_analyze::{cone_bit_names, task_cone, DepGraph};
use covest_bdd::BddManager;
use covest_par::{run_batch, BatchReport, DeckJob, ParConfig};
use covest_smv::decl_bit_names;

/// The four fixed bundled decks plus sized pipeline decks whose debug
/// register chains give the reduction something real to cut away.
fn fleet() -> Vec<DeckJob> {
    use covest_circuits::{circular_queue, counter, pipeline, priority_buffer};

    let with_specs = |mut deck: String, specs: &[covest_ctl::Formula]| -> String {
        for spec in specs {
            writeln!(deck, "SPEC {spec};").expect("write to string");
        }
        deck
    };

    let mut queue_suite = circular_queue::wrap_suite_initial();
    queue_suite.extend(circular_queue::full_suite());
    queue_suite.extend(circular_queue::empty_suite());
    let mut buffer_suite = priority_buffer::lo_suite_initial(4);
    buffer_suite.push(priority_buffer::lo_missing_case());
    buffer_suite.extend(priority_buffer::hi_suite(4));

    let mut decks = vec![
        DeckJob::new(
            "circuit:circular_queue",
            with_specs(circular_queue::deck(4), &queue_suite),
        ),
        DeckJob::new(
            "circuit:priority_buffer",
            with_specs(priority_buffer::deck(4, false), &buffer_suite),
        ),
        DeckJob::new(
            "circuit:counter",
            with_specs(counter::deck(), &counter::increment_properties()),
        ),
    ];
    for stages in [4usize, 8] {
        let mut suite = pipeline::out_suite_initial(stages);
        suite.extend(pipeline::out_suite_hold());
        decks.push(DeckJob::new(
            format!("sized:pipeline_d{stages}"),
            with_specs(pipeline::deck_sized(stages), &suite),
        ));
    }
    decks
}

/// Asserts the two modes agree on every deterministic report field (the
/// exact-parity contract; node counts and timings legitimately differ).
fn assert_parity(on: &BatchReport, off: &BatchReport) {
    assert_eq!(on.decks.len(), off.decks.len(), "deck count drifted");
    for (a, b) in on.decks.iter().zip(&off.decks) {
        assert_eq!(a.name, b.name, "deck order drifted");
        assert_eq!(a.verdicts, b.verdicts, "{}: verdicts drifted", a.name);
        assert_eq!(
            a.signals.len(),
            b.signals.len(),
            "{}: signal count drifted",
            a.name
        );
        for (sa, sb) in a.signals.iter().zip(&b.signals) {
            assert_eq!(
                sa.row.percent.to_bits(),
                sb.row.percent.to_bits(),
                "{}/{}: coverage must be bit-identical (on {} vs off {})",
                a.name,
                sa.signal,
                sa.row.percent,
                sb.row.percent
            );
            assert_eq!(
                sa.row.covered_states.to_bits(),
                sb.row.covered_states.to_bits(),
                "{}/{}: covered count drifted",
                a.name,
                sa.signal
            );
            assert_eq!(
                sa.row.space_states.to_bits(),
                sb.row.space_states.to_bits(),
                "{}/{}: space count drifted",
                a.name,
                sa.signal
            );
            assert_eq!(
                sa.row.verdicts, sb.row.verdicts,
                "{}/{}: verdicts drifted",
                a.name, sa.signal
            );
            assert_eq!(
                sa.row.uncovered_sample, sb.row.uncovered_sample,
                "{}/{}: uncovered sample drifted",
                a.name, sa.signal
            );
            let probe = BddManager::new();
            let s = probe.import_bdd(&sa.uncovered).expect("on dump imports");
            let p = probe.import_bdd(&sb.uncovered).expect("off dump imports");
            assert_eq!(s, p, "{}/{}: uncovered set drifted", a.name, sa.signal);
        }
    }
}

/// The peak live node count of the shard that analyzed `signal` on
/// `deck`. A deck is one shard, so this attributes the whole shard's
/// peak to each of its signals, under coi on and off alike.
fn peak_live(report: &BatchReport, deck: &str, signal: &str) -> u64 {
    report
        .decks
        .iter()
        .filter(|d| d.name == deck)
        .flat_map(|d| d.profiles.iter())
        .find(|p| p.signals.iter().any(|s| s == signal))
        .map(|p| p.counters.get("bdd_peak_live_nodes"))
        .expect("profiled shard")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_coi.json").to_owned());
    let decks = fleet();
    let jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4);
    let config = |coi: bool| ParConfig {
        jobs,
        profile: true,
        coi,
        ..Default::default()
    };

    let (on, on_ms) = covest_bench::timed(|| run_batch(&decks, &config(true)).expect("coi on"));
    let (off, off_ms) = covest_bench::timed(|| run_batch(&decks, &config(false)).expect("coi off"));
    assert_parity(&on, &off);

    // Static cone geometry per task, straight from the analyzer.
    struct Row {
        deck: String,
        signal: String,
        cone_bits: usize,
        total_bits: usize,
        peak_on: u64,
        peak_off: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for job in &decks {
        let module = covest_smv::parse_module(&job.source).expect("deck parses");
        let graph = DepGraph::new(&module);
        let total_bits: usize = module.vars.iter().map(|d| decl_bit_names(d).len()).sum();
        let deck_report = on
            .decks
            .iter()
            .find(|d| d.name == job.name)
            .expect("deck in report");
        for outcome in &deck_report.signals {
            let cone = task_cone(&module, &graph, &outcome.signal).expect("cone computes");
            rows.push(Row {
                deck: job.name.clone(),
                signal: outcome.signal.clone(),
                cone_bits: cone_bit_names(&module, &cone).len(),
                total_bits,
                peak_on: peak_live(&on, &job.name, &outcome.signal),
                peak_off: peak_live(&off, &job.name, &outcome.signal),
            });
        }
    }

    // Acceptance gate: parity held above; on top, COI must show a peak
    // live-node reduction on at least one sized pipeline deck, whose
    // debug chain exists precisely to be pruned.
    let reduced = rows
        .iter()
        .any(|r| r.deck.starts_with("sized:pipeline") && r.peak_on < r.peak_off);
    assert!(
        reduced,
        "expected a peak-live-node reduction on at least one sized pipeline deck:\n{}",
        rows.iter()
            .map(|r| format!(
                "  {}/{}: cone {}/{} bits, peak live on {} vs off {}",
                r.deck, r.signal, r.cone_bits, r.total_bits, r.peak_on, r.peak_off
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );

    let mut json = String::from(
        "{\n  \"description\": \"Cone-of-influence reduction: the worker pool running \
         the bundled decks plus sized pipeline decks (debug register chains outside \
         every property's cone) with coi on vs off. Reports are asserted identical on \
         every deterministic field before timing is reported; the gate requires a \
         peak-live-node reduction on at least one sized pipeline deck.\",\n",
    );
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"decks\": {},", decks.len());
    let _ = writeln!(json, "  \"coi_on_ms\": {on_ms:.2},");
    let _ = writeln!(json, "  \"coi_off_ms\": {off_ms:.2},");
    let _ = writeln!(json, "  \"parity\": \"asserted\",");
    json.push_str("  \"tasks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"deck\": {}, \"signal\": {}, \"cone_bits\": {}, \"total_bits\": {}, \
             \"peak_live_on\": {}, \"peak_live_off\": {}}}",
            covest_core::json_string(&r.deck),
            covest_core::json_string(&r.signal),
            r.cone_bits,
            r.total_bits,
            r.peak_on,
            r.peak_off
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write report");

    for r in &rows {
        println!(
            "{}/{}: cone {}/{} bits, peak live {} (on) vs {} (off)",
            r.deck, r.signal, r.cone_bits, r.total_bits, r.peak_on, r.peak_off
        );
    }
    println!(
        "fleet wall-clock: coi on {on_ms:.1} ms, coi off {off_ms:.1} ms ({jobs} jobs); \
         parity asserted"
    );
    println!("wrote {out_path}");
}
