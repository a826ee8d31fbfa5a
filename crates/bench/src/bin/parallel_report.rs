//! Measures what the sharded parallel coverage engine buys, on two
//! fleets:
//!
//! - the **bundled fleet** (every bundled circuit + `models/*.smv`) —
//!   parity is cross-checked bit for bit, the phase attribution is
//!   collected from a profiled run, and the *overhead gate* holds
//!   unconditionally: at `jobs = 1` the pool may cost at most 15% over
//!   the sequential estimator (threads can't help at one job, so the
//!   pool must at least not hurt — this gate cannot silently pass on a
//!   1-core CI runner the way a speedup gate would);
//! - a **sized fleet** (the `gen-models --size` scaling decks at several
//!   sizes) — large enough that compile/reachability dominate, where the
//!   *speedup gate* applies: with ≥ 2 cores visible, `--jobs 4` must
//!   beat sequential (speedup > 1.0).
//!
//! Phase attribution comes from per-shard profiles. Queue wait is
//! attributed per shard as (dequeue − enqueue), so the **max** is
//! bounded by the pool's wall-clock; the **total** may legitimately
//! exceed wall-clock because many shards wait concurrently (see
//! DESIGN.md), which is why the mean is reported alongside it.
//!
//! Writes `BENCH_parallel.json` at the workspace root (or the path
//! given as the first argument).

use std::fmt::Write as _;

use covest_bdd::BddManager;
use covest_par::{run_batch, run_sequential, BatchReport, DeckJob, ParConfig};

use covest_bench::{bundled_fleet as fleet, with_specs};

/// The scaling fleet: the `gen-models --size` decks (sized counters and
/// pipelines with their property suites) at several sizes, generated
/// in-process. Each deck is one heavyweight shard, so the fleet gives
/// `--jobs 4` real independent work to spread across cores.
fn sized_fleet() -> Vec<DeckJob> {
    use covest_circuits::{counter, pipeline};

    let mut decks = Vec::new();
    for n in [48u32, 64, 96, 128] {
        decks.push(DeckJob::new(
            format!("sized:counter_m{n}"),
            with_specs(
                counter::deck_sized(n),
                &counter::increment_properties_sized(n),
            ),
        ));
    }
    for stages in [10usize, 12, 14] {
        let mut suite = pipeline::out_suite_initial(stages);
        suite.extend(pipeline::out_suite_hold());
        decks.push(DeckJob::new(
            format!("sized:pipeline_d{stages}"),
            with_specs(pipeline::deck_sized(stages), &suite),
        ));
    }
    decks
}

/// Best-of-`n` wall-clock, to keep the gates out of reach of scheduler
/// noise on small fleets.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut best) = covest_bench::timed(&mut f);
    for _ in 1..n {
        let (v, ms) = covest_bench::timed(&mut f);
        if ms < best {
            best = ms;
            out = v;
        }
    }
    (out, best)
}

/// Asserts the parallel report agrees with the sequential baseline on
/// every deterministic result (the acceptance contract; node counts and
/// timings legitimately differ between per-shard and shared managers).
fn assert_parity(label: &str, seq: &BatchReport, par: &BatchReport) {
    assert_eq!(seq.decks.len(), par.decks.len(), "{label}: deck count");
    for (sd, pd) in seq.decks.iter().zip(&par.decks) {
        assert_eq!(sd.name, pd.name, "{label}: deck order drifted");
        assert_eq!(
            sd.verdicts, pd.verdicts,
            "{label}/{}: verdicts drifted",
            sd.name
        );
        for (so, po) in sd.signals.iter().zip(&pd.signals) {
            assert_eq!(
                so.row.percent.to_bits(),
                po.row.percent.to_bits(),
                "{label}/{}/{}: coverage must be bit-identical (seq {} vs par {})",
                sd.name,
                so.signal,
                so.row.percent,
                po.row.percent
            );
            assert_eq!(
                so.row.uncovered_sample, po.row.uncovered_sample,
                "{label}/{}/{}: uncovered sample drifted",
                sd.name, so.signal
            );
            let probe = BddManager::new();
            let s = probe.import_bdd(&so.uncovered).expect("seq dump imports");
            let p = probe.import_bdd(&po.uncovered).expect("par dump imports");
            assert_eq!(
                s, p,
                "{label}/{}/{}: uncovered set drifted",
                sd.name, so.signal
            );
        }
    }
}

fn main() {
    // Usage: parallel_report [OUT.json] [--jobs N]. The jobs override
    // pins the bundled-fleet pool width (CI passes `--jobs 4` so the
    // artifact is comparable across runners); the overhead gate always
    // runs at jobs=1 and the sized fleet always at jobs=4 regardless.
    let mut out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json").to_owned();
    let mut jobs_override = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--jobs" {
            let n = argv.next().expect("--jobs needs a value");
            jobs_override = Some(n.parse::<usize>().expect("--jobs value parses"));
        } else {
            out_path = arg;
        }
    }
    let decks = fleet();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let jobs = jobs_override.unwrap_or(cores.min(4)).max(1);
    let config = |jobs: usize, profile: bool| ParConfig {
        jobs,
        profile,
        ..Default::default()
    };

    // ---- Bundled fleet: parity, overhead gate, phase attribution ----
    let (seq, seq_ms) = best_of(3, || {
        run_sequential(&decks, &config(jobs, false)).expect("sequential baseline runs")
    });
    let (par, par_ms) = best_of(3, || {
        run_batch(&decks, &config(jobs, false)).expect("parallel batch runs")
    });
    let (par1, par1_ms) = best_of(3, || {
        run_batch(&decks, &config(1, false)).expect("jobs=1 batch runs")
    });
    assert_parity("bundled", &seq, &par);
    assert_parity("bundled jobs=1", &seq, &par1);
    let speedup = seq_ms / par_ms;
    let overhead_ratio = par1_ms / seq_ms;
    let tasks = par.outcomes().count();

    // Phase attribution from a separate profiled run: where the pool's
    // CPU time went, summed across shards. Compile, reachability and
    // verification are paid once per *shard* (one deck), not once per
    // signal — that, plus spreading them over the cores, is the whole
    // speedup story. Queue wait is NOT compute — a queued shard occupies
    // no core — so it is reported separately: the max bounds any single
    // shard's latency (and can never exceed the pool's wall-clock), the
    // mean is the honest per-shard figure, and the total may exceed
    // wall-clock because shards wait concurrently (see DESIGN.md).
    let prof = run_batch(&decks, &config(jobs, true)).expect("profiled batch runs");
    let profiles: Vec<_> = prof.decks.iter().flat_map(|d| d.profiles.iter()).collect();
    let sum_ms = |f: fn(&covest_par::ShardProfile) -> std::time::Duration| -> f64 {
        profiles.iter().map(|p| f(p).as_secs_f64() * 1e3).sum()
    };
    let plan_ms: f64 = prof
        .decks
        .iter()
        .map(|d| d.plan_time.as_secs_f64() * 1e3)
        .sum();
    let queue_ms_total = sum_ms(|p| p.queue_wait);
    let queue_ms_mean = queue_ms_total / profiles.len().max(1) as f64;
    let queue_ms_max = profiles
        .iter()
        .map(|p| p.queue_wait.as_secs_f64() * 1e3)
        .fold(0.0f64, f64::max);
    let compile_ms = sum_ms(|p| p.compile);
    let reach_ms = sum_ms(|p| p.reach);
    let solve_ms = sum_ms(|p| p.solve);

    // ---- Sized fleet: the speedup gate ----
    let sized = sized_fleet();
    let sized_jobs = 4;
    let (sized_seq, sized_seq_ms) = covest_bench::timed(|| {
        run_sequential(&sized, &config(sized_jobs, false)).expect("sized sequential runs")
    });
    let (sized_par, sized_par_ms) = covest_bench::timed(|| {
        run_batch(&sized, &config(sized_jobs, false)).expect("sized batch runs")
    });
    assert_parity("sized", &sized_seq, &sized_par);
    let sized_speedup = sized_seq_ms / sized_par_ms;
    let sized_tasks = sized_par.outcomes().count();

    // Gate 1 (unconditional — meaningful even on a 1-core runner): at
    // jobs=1 the pool is the sequential algorithm plus scheduling, so it
    // may cost at most 15% over the sequential baseline.
    println!(
        "gate overhead  (bundled fleet, jobs=1, {cores} cores): pool {par1_ms:.1} ms vs \
         sequential {seq_ms:.1} ms -> ratio {overhead_ratio:.3} (limit 1.150) — {}",
        if overhead_ratio <= 1.15 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    assert!(
        overhead_ratio <= 1.15,
        "jobs=1 pool overhead gate: {par1_ms:.1} ms > 1.15 x {seq_ms:.1} ms"
    );
    // Gate 2 (needs real parallelism): on the sized fleet, `--jobs 4`
    // must actually pay.
    if cores >= 2 {
        println!(
            "gate speedup   (sized fleet, jobs={sized_jobs}, {cores} cores): sequential \
             {sized_seq_ms:.1} ms, parallel {sized_par_ms:.1} ms -> {sized_speedup:.2}x — {}",
            if sized_speedup > 1.0 { "PASS" } else { "FAIL" }
        );
        assert!(
            sized_speedup > 1.0,
            "sized-fleet speedup gate: {sized_par_ms:.1} ms on {sized_jobs} jobs is not \
             faster than sequential {sized_seq_ms:.1} ms with {cores} cores visible"
        );
    } else {
        println!(
            "gate speedup   (sized fleet, jobs={sized_jobs}, {cores} core): SKIPPED — \
             a single-core runner can only lose to thread overhead"
        );
    }

    let mut json = String::from(
        "{\n  \"description\": \"Whole-fleet wall-clock: the sequential estimator \
         (one manager per deck, signals in series) vs the covest-par worker pool \
         (one shard per deck on a private manager, whole-shard work stealing, one \
         thread budget across all decks x signals). Parity is asserted bit for bit \
         before timing is even reported. Gates: jobs=1 pool overhead <= 1.15x \
         sequential (unconditional), and sized-fleet jobs=4 speedup > 1.0 when \
         >= 2 cores are visible.\",\n",
    );
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"decks\": {},", decks.len());
    let _ = writeln!(json, "  \"signal_tasks\": {tasks},");
    let _ = writeln!(json, "  \"shards\": {},", prof.sched.shards);
    let _ = writeln!(json, "  \"steals\": {},", prof.sched.steals);
    let _ = writeln!(json, "  \"sequential_ms\": {seq_ms:.2},");
    let _ = writeln!(json, "  \"parallel_ms\": {par_ms:.2},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"jobs1_parallel_ms\": {par1_ms:.2},");
    let _ = writeln!(json, "  \"jobs1_overhead_ratio\": {overhead_ratio:.3},");
    let _ = writeln!(json, "  \"phase_plan_ms\": {plan_ms:.2},");
    let _ = writeln!(json, "  \"phase_queue_ms_total\": {queue_ms_total:.2},");
    let _ = writeln!(json, "  \"phase_queue_ms_mean\": {queue_ms_mean:.2},");
    let _ = writeln!(json, "  \"phase_queue_ms_max\": {queue_ms_max:.2},");
    let _ = writeln!(json, "  \"phase_compile_ms\": {compile_ms:.2},");
    let _ = writeln!(json, "  \"phase_reach_ms\": {reach_ms:.2},");
    let _ = writeln!(json, "  \"phase_solve_ms\": {solve_ms:.2},");
    let _ = writeln!(json, "  \"sized_decks\": {},", sized.len());
    let _ = writeln!(json, "  \"sized_signal_tasks\": {sized_tasks},");
    let _ = writeln!(json, "  \"sized_jobs\": {sized_jobs},");
    let _ = writeln!(json, "  \"sized_sequential_ms\": {sized_seq_ms:.2},");
    let _ = writeln!(json, "  \"sized_parallel_ms\": {sized_par_ms:.2},");
    let _ = writeln!(json, "  \"sized_speedup\": {sized_speedup:.3},");
    json.push_str("  \"rows\": [\n");
    let all: Vec<_> = par.outcomes().collect();
    for (i, o) in all.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"deck\": {}, \"signal\": {}, \"percent\": {}, \"holds\": {}}}",
            covest_core::json_string(&o.deck),
            covest_core::json_string(&o.signal),
            o.row.percent,
            o.row.all_hold()
        );
        json.push_str(if i + 1 == all.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write report");

    println!(
        "bundled fleet: {} decks, {} signal tasks, {} shards ({} stolen): sequential \
         {seq_ms:.1} ms, parallel {par_ms:.1} ms ({jobs} jobs, {cores} cores) -> {speedup:.2}x",
        decks.len(),
        tasks,
        prof.sched.shards,
        prof.sched.steals,
    );
    println!(
        "sized fleet:   {} decks, {} signal tasks: sequential {sized_seq_ms:.1} ms, \
         parallel {sized_par_ms:.1} ms ({sized_jobs} jobs, {cores} cores) -> {sized_speedup:.2}x",
        sized.len(),
        sized_tasks,
    );
    println!(
        "phase attribution (cpu-ms across shards): plan {plan_ms:.1}, \
         compile {compile_ms:.1}, reach {reach_ms:.1}, solve {solve_ms:.1}; \
         queue wait (not compute): total {queue_ms_total:.1}, mean {queue_ms_mean:.1}, \
         max {queue_ms_max:.1}"
    );
    println!("wrote {out_path}");
}
