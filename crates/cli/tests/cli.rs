//! End-to-end tests of the `covest` command-line tool against the
//! bundled model decks.

use std::process::Command;

fn covest() -> Command {
    Command::new(env!("CARGO_BIN_EXE_covest-cli"))
}

fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

#[test]
fn checks_counter_with_coverage() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/counter.smv"))
        .arg("--coverage")
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("[PASS]").count(), 5, "{stdout}");
    assert!(stdout.contains("83.33"), "{stdout}");
    assert!(stdout.contains("uncovered states for `count`"), "{stdout}");
}

#[test]
fn strict_mode_fails_on_buggy_buffer() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/priority_buffer_buggy.smv"))
        .arg("--strict")
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "the buggy deck must fail strict mode"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[FAIL]"), "{stdout}");
    assert!(
        stdout.contains("counterexample") || stdout.contains("step 0"),
        "{stdout}"
    );
}

#[test]
fn fixed_buffer_passes_at_full_coverage() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/priority_buffer.smv"))
        .arg("--coverage")
        .arg("--strict")
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("[FAIL]"), "{stdout}");
    assert!(stdout.contains("100.00"), "{stdout}");
}

#[test]
fn pipeline_deck_uses_embedded_fairness() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/pipeline.smv"))
        .arg("--strict")
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "eventualities hold under the deck's FAIRNESS: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// There is one engine configuration, so `--simplify`, `--reorder` and
/// `--coi` are no flags at all: any value, the former defaults included,
/// is a usage error (exit 2) on `check` and on `batch`.
#[test]
fn bad_simplify_mode_is_rejected() {
    let joblist = write_joblist_of("covest-removed-flags.txt", &["counter.smv"]);
    let deck = repo_root().join("models/counter.smv");
    for (flag, value) in [
        ("--simplify", "off"),
        ("--simplify", "restrict"),
        ("--reorder", "off"),
        ("--reorder", "sift"),
        ("--reorder", "auto"),
        ("--coi", "on"),
        ("--coi", "off"),
    ] {
        for (cmd, target) in [("check", &deck), ("batch", &joblist)] {
            let out = covest()
                .arg(cmd)
                .arg(target)
                .args([flag, value])
                .output()
                .expect("runs");
            assert_eq!(out.status.code(), Some(2), "{cmd} {flag} {value}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("usage: covest check"), "{stderr}");
            assert!(out.stdout.is_empty(), "{cmd} {flag} {value} printed output");
        }
    }
    let _ = std::fs::remove_file(joblist);
}

/// There is one transition relation, so `--image` is no flag at all:
/// every method, the former ones included, is a usage error (exit 2).
#[test]
fn bad_image_method_is_rejected() {
    for method in ["mono", "part", "hybrid"] {
        let out = covest()
            .arg("check")
            .arg(repo_root().join("models/counter.smv"))
            .args(["--image", method])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "--image {method}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: covest check"), "{stderr}");
    }
}

/// Runs `covest check` on a deck and returns stdout.
fn check_stdout(deck: &str, extra: &[&str]) -> String {
    let out = covest()
        .arg("check")
        .arg(repo_root().join(deck))
        .args(extra)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{deck} {extra:?} run fails");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `--jobs N` is a `batch` setting: `check` runs the same program with
/// or without it, so verification lines, vacuity warnings,
/// uncovered-state listings and the table's circuit / signal / #prop /
/// %COV columns are all byte-identical to the default run.
#[test]
fn parallel_check_output_matches_sequential() {
    let seq = check_stdout("models/priority_buffer.smv", &["--coverage"]);
    let par = check_stdout("models/priority_buffer.smv", &["--coverage", "--jobs", "4"]);

    // Everything except table header/rows (the only lines with " - ").
    let stable = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.contains(" - "))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(stable(&seq), stable(&par), "non-table output must match");

    // Table rows: columns up to %COV (the 7th token from the right
    // starts the node/time columns) must match row by row.
    let row_keys = |s: &str| -> Vec<Vec<String>> {
        s.lines()
            .filter(|l| l.contains("ms"))
            .map(|l| {
                let tokens: Vec<&str> = l.split_whitespace().collect();
                assert!(tokens.len() >= 7, "unexpected table row: {l}");
                tokens[..tokens.len() - 6]
                    .iter()
                    .map(|t| t.to_string())
                    .collect()
            })
            .collect()
    };
    let (seq_rows, par_rows) = (row_keys(&seq), row_keys(&par));
    assert_eq!(seq_rows.len(), 2, "two signals expected:\n{seq}");
    assert_eq!(seq_rows, par_rows, "identity columns must match");
}

#[test]
fn check_json_reports_rows_and_verdicts() {
    let json_path = std::env::temp_dir().join("covest-check-test.json");
    let _ = std::fs::remove_file(&json_path);
    let stdout = check_stdout(
        "models/counter.smv",
        &["--coverage", "--json", json_path.to_str().unwrap()],
    );
    assert!(stdout.contains("wrote "), "{stdout}");
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.contains("\"signal\": \"count\""), "{json}");
    assert!(json.contains("\"percent\": 83.33333333333333"), "{json}");
    assert!(json.contains("\"formula\": \"AG ("), "{json}");
    assert!(json.contains("\"holds\": true"), "{json}");
    assert!(json.contains("\"uncovered\": [\""), "{json}");
    let _ = std::fs::remove_file(&json_path);
}

/// Writes a joblist over every bundled deck (relative paths, exercising
/// joblist-directory resolution) and returns its path.
fn write_joblist(name: &str) -> std::path::PathBuf {
    write_joblist_of(
        name,
        &[
            "# every bundled deck, by absolute path",
            "counter.smv",
            "pipeline.smv",
            "priority_buffer.smv",
            "priority_buffer_buggy.smv",
        ],
    )
}

/// Writes a joblist naming the given `models/` decks (and `#` comment
/// lines) by absolute path and returns its path.
fn write_joblist_of(name: &str, entries: &[&str]) -> std::path::PathBuf {
    let dir = repo_root().join("models");
    let joblist = std::env::temp_dir().join(name);
    let lines: String = entries
        .iter()
        .map(|l| {
            if l.starts_with('#') {
                format!("{l}\n")
            } else {
                format!("{}\n", dir.join(l).display())
            }
        })
        .collect();
    std::fs::write(&joblist, lines).expect("write joblist");
    joblist
}

/// `covest batch` output carries no timings or node counts, so two runs
/// with different thread budgets must be byte-identical — and the JSON
/// must be identical outside the `_ms` fields. `--jobs 0` (one thread
/// per core) is one more budget.
#[test]
fn batch_is_byte_identical_across_job_counts() {
    let joblist = write_joblist("covest-batch-parity.txt");
    let run = |jobs: &str, json: &std::path::Path| -> String {
        let out = covest()
            .arg("batch")
            .arg(&joblist)
            .args(["--jobs", jobs, "--json", json.to_str().unwrap()])
            .output()
            .expect("runs");
        assert!(out.status.success(), "batch --jobs {jobs} fails");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let json1 = std::env::temp_dir().join("covest-batch-1.json");
    let json4 = std::env::temp_dir().join("covest-batch-4.json");
    let json0 = std::env::temp_dir().join("covest-batch-0.json");
    let out1 = run("1", &json1);
    let out4 = run("4", &json4);
    let out0 = run("0", &json0);
    // Stdout: identical except the `wrote <path>` trailer.
    let body = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.starts_with("wrote "))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        body(&out1),
        body(&out4),
        "batch stdout must not depend on --jobs"
    );
    assert_eq!(body(&out1), body(&out0), "--jobs 0 changes batch stdout");
    assert!(out4.contains("batch: 4 decks, 6 signal analyses"), "{out4}");
    assert!(out4.contains("83.33% covered"), "{out4}");
    assert!(out4.contains("[FAIL]"), "the buggy deck must fail:\n{out4}");
    assert!(out4.contains("uncovered: "), "{out4}");

    // JSON: identical outside the timing fields.
    let scrub = |p: &std::path::Path| -> String {
        let mut s = std::fs::read_to_string(p).expect("json written");
        for key in ["\"verify_ms\": ", "\"coverage_ms\": "] {
            while let Some(at) = s.find(key) {
                let start = at + key.len();
                let end = start
                    + s[start..]
                        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                        .unwrap();
                s.replace_range(at..end, "");
            }
        }
        s
    };
    assert_eq!(
        scrub(&json1),
        scrub(&json4),
        "batch JSON must not depend on --jobs"
    );
    assert_eq!(scrub(&json1), scrub(&json0), "--jobs 0 changes batch JSON");
    for p in [joblist, json1, json4, json0] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_strict_fails_when_any_deck_fails() {
    let joblist = write_joblist("covest-batch-strict.txt");
    let out = covest()
        .arg("batch")
        .arg(&joblist)
        .args(["--strict", "--jobs", "2"])
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "the buggy deck must fail strict batch mode"
    );
    let _ = std::fs::remove_file(joblist);
}

#[test]
fn batch_rejects_missing_deck() {
    let joblist = std::env::temp_dir().join("covest-batch-missing.txt");
    std::fs::write(&joblist, "does-not-exist.smv\n").expect("write joblist");
    let out = covest().arg("batch").arg(&joblist).output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read deck"), "{stderr}");
    let _ = std::fs::remove_file(joblist);
}

#[test]
fn bad_jobs_value_is_rejected() {
    let out = covest()
        .arg("check")
        .arg(repo_root().join("models/counter.smv"))
        .args(["--jobs", "many"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs expects a thread count"), "{stderr}");
}

#[test]
fn usage_on_bad_arguments() {
    let out = covest().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_file_reports_error() {
    let out = covest()
        .arg("check")
        .arg("does-not-exist.smv")
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

/// Runs `covest batch` over a joblist of the given `models/` decks and
/// returns stdout.
fn batch_stdout(decks: &[&str], extra: &[&str]) -> String {
    // One joblist file per (decks, flags), so parallel tests never share.
    let key: String = [decks, extra]
        .concat()
        .concat()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let name = format!("covest-batch-{key}.txt");
    let joblist = write_joblist_of(&name, decks);
    let out = covest()
        .arg("batch")
        .arg(&joblist)
        .args(extra)
        .output()
        .expect("runs");
    let _ = std::fs::remove_file(joblist);
    assert!(out.status.success(), "batch {decks:?} {extra:?} run fails");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The deterministic counter section of a `--stats` summary: from
/// `stats:` up to the `-- timings --` marker.
fn stats_counters(stdout: &str) -> String {
    let start = stdout.find("stats:").expect("stats section present");
    let end = stdout
        .find("-- timings --")
        .expect("timings marker present");
    assert!(start < end, "marker precedes stats:\n{stdout}");
    stdout[start..end].to_owned()
}

/// The `--stats` summary above the `-- timings --` marker holds only
/// deterministic counters, so it must be byte-identical between a
/// sequential and a 4-thread run (the timings below the marker are
/// wall-clock and legitimately differ). `check` prints the front-end
/// block only; the per-shard blocks are `batch`'s. Below the marker,
/// `check` prints its own phase times on one line.
#[test]
fn stats_summary_is_byte_identical_across_job_counts() {
    let check = |jobs: &str| {
        stats_counters(&check_stdout(
            "models/counter.smv",
            &["--coverage", "--stats", "--jobs", jobs],
        ))
    };
    let stdout = check_stdout("models/counter.smv", &["--coverage", "--stats"]);
    let timings = stdout
        .split_once("-- timings --\n")
        .map(|(_, below)| below)
        .unwrap_or_default();
    let line = timings.lines().next().unwrap_or_default();
    let phases = [
        "parse",
        "plan",
        "compile",
        "sift",
        "reach",
        "verify",
        "solve count",
    ];
    let mut rest = line
        .strip_prefix("  check")
        .unwrap_or_else(|| panic!("{stdout}"));
    for phase in phases {
        let value = rest
            .strip_prefix(&format!("  {phase} "))
            .unwrap_or_else(|| panic!("no {phase} time in `{line}`"));
        let (ms, tail) = value.split_once(" ms").unwrap_or_else(|| panic!("{line}"));
        assert!(ms.parse::<f64>().is_ok(), "{phase}: `{ms}` in `{line}`");
        rest = tail;
    }
    assert_eq!(rest, "", "{line}");
    let seq = check("1");
    assert!(seq.contains("  front-end\n"), "{seq}");
    assert!(seq.contains("bdd_peak_live_nodes"), "{seq}");
    assert!(seq.contains("image_calls"), "{seq}");
    assert!(!seq.contains("  shard "), "check runs no shards:\n{seq}");
    assert_eq!(seq, check("4"), "stats counters must not depend on --jobs");

    let batch = |jobs: &str| {
        stats_counters(&batch_stdout(
            &["counter.smv"],
            &["--stats", "--jobs", jobs],
        ))
    };
    let seq = batch("1");
    assert!(seq.contains("bdd_peak_live_nodes"), "{seq}");
    assert!(seq.contains("image_calls"), "{seq}");
    assert!(seq.contains("signals count"), "{seq}");
    assert_eq!(seq, batch("4"), "stats counters must not depend on --jobs");
}

/// `--trace FILE` writes a JSONL span log covering the compile, the
/// reachability fixpoint (with per-step events), and every per-signal
/// coverage fixpoint.
#[test]
fn trace_log_covers_the_run_phases() {
    let trace = std::env::temp_dir().join("covest-trace-test.jsonl");
    let _ = std::fs::remove_file(&trace);
    let stdout = check_stdout(
        "models/counter.smv",
        &["--coverage", "--trace", trace.to_str().unwrap()],
    );
    assert!(stdout.contains("wrote "), "{stdout}");
    let log = std::fs::read_to_string(&trace).expect("trace written");
    for needle in [
        "\"name\":\"compile\"",
        "\"name\":\"reachability\"",
        "\"name\":\"bfs_step\"",
        "\"name\":\"signal:count\"",
        "\"name\":\"verify\"",
        "\"name\":\"coverage\"",
    ] {
        assert!(log.contains(needle), "missing {needle} in:\n{log}");
    }
    // Every line parses as a record with the fixed field set.
    for line in log.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in ["\"type\"", "\"id\"", "\"name\"", "\"start_us\""] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    let _ = std::fs::remove_file(&trace);
}

/// With `--stats --json`, the JSON document gains a `stats` object whose
/// counters match across job counts (the `*_ms` fields are wall-clock
/// and are scrubbed before comparing), `check`'s and `batch`'s alike.
#[test]
fn json_stats_object_is_deterministic() {
    let run = |jobs: &str, path: &std::path::Path| -> String {
        check_stdout(
            "models/counter.smv",
            &[
                "--coverage",
                "--stats",
                "--jobs",
                jobs,
                "--json",
                path.to_str().unwrap(),
            ],
        );
        std::fs::read_to_string(path).expect("json written")
    };
    let p1 = std::env::temp_dir().join("covest-stats-1.json");
    let p4 = std::env::temp_dir().join("covest-stats-4.json");
    let j1 = run("1", &p1);
    let j4 = run("4", &p4);
    assert!(j1.contains("\"stats\": {"), "{j1}");
    assert!(j1.contains("\"front_end\": {"), "{j1}");
    assert!(j1.contains("\"bdd_peak_live_nodes\":"), "{j1}");
    // `check`'s `solve_ms` is a list of times, one per signal.
    assert!(j1.contains("\"solve_ms\": ["), "{j1}");
    let scrub = |s: &str| -> String {
        let mut s = s.to_owned();
        for key in [
            "\"verify_ms\": ",
            "\"coverage_ms\": ",
            "\"queue_ms\": ",
            "\"compile_ms\": ",
            "\"reach_ms\": ",
            "\"solve_ms\": ",
            "\"plan_ms\": ",
            "\"parse_ms\": ",
            "\"sift_ms\": ",
        ] {
            while let Some(at) = s.find(key) {
                let start = at + key.len();
                let list = s[start..].starts_with('[');
                let end = start
                    + s[start..]
                        .find(|c: char| {
                            !(c.is_ascii_digit() || c == '.' || list && "[, ".contains(c))
                        })
                        .unwrap();
                let end = if list { end + 1 } else { end };
                s.replace_range(at..end, "");
            }
        }
        s
    };
    assert_eq!(
        scrub(&j1),
        scrub(&j4),
        "json stats must not depend on --jobs"
    );
    for p in [p1, p4] {
        let _ = std::fs::remove_file(p);
    }

    // `batch`'s, over more decks than threads: the per-shard counters and
    // peak tables too.
    let dir = std::env::temp_dir().join("covest-batch-stats-json");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let decks: Vec<String> = bundled_and_sized_decks(&dir)
        .iter()
        .map(|d| format!("{}\n", d.display()))
        .collect();
    let joblist = dir.join("joblist.txt");
    std::fs::write(&joblist, decks.concat()).expect("joblist");
    let batch = |jobs: &str| -> String {
        let json = dir.join(format!("stats-{jobs}.json"));
        let out = covest()
            .arg("batch")
            .arg(&joblist)
            .args(["--stats", "--jobs", jobs, "--json"])
            .arg(&json)
            .output()
            .expect("runs");
        assert!(out.status.success(), "batch --jobs {jobs} fails");
        std::fs::read_to_string(json).expect("json written")
    };
    let (b1, b4) = (batch("1"), batch("4"));
    assert!(b1.contains("\"shards\": [{\"deck\": "), "{b1}");
    assert!(b1.contains("\"peak_by_phase\": {"), "{b1}");
    assert_eq!(
        scrub(&b1),
        scrub(&b4),
        "batch json stats must not depend on --jobs"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `--trace-format chrome` streams a Chrome trace-event JSON array:
/// square-bracketed, comma-separated objects, `thread_name` metadata
/// for the worker and front-end tracks, and complete (`ph:"X"`) events
/// for the run's phases. `ui.perfetto.dev` ingests exactly this shape.
/// `check` records everything on the front-end track; `batch` writes one
/// track per pool worker with the shard's `signals` tag.
#[test]
fn chrome_trace_is_a_perfetto_loadable_array() {
    let trace = std::env::temp_dir().join("covest-trace-test-chrome.json");
    let flags = [
        "--jobs",
        "4",
        "--trace",
        trace.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ];
    let read_trace = |stdout: &str| -> String {
        assert!(stdout.contains("wrote "), "{stdout}");
        let log = std::fs::read_to_string(&trace).expect("trace written");
        let _ = std::fs::remove_file(&trace);
        let body = log.trim();
        assert!(body.starts_with('[') && body.ends_with(']'), "{body}");
        // Structural JSON-array check without a parser: every event line
        // is one object, comma-terminated except the last.
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines.len() > 3, "trace has events");
        for line in &lines[1..lines.len() - 1] {
            assert!(line.starts_with('{'), "{line}");
            assert!(line.ends_with("},") || line.ends_with('}'), "{line}");
        }
        log
    };
    let common = [
        "\"ph\":\"M\"",
        "\"name\":\"thread_name\"",
        "\"ph\":\"X\"",
        "\"name\":\"compile\"",
        "\"name\":\"signal:hi_cnt\"",
        "\"mem_peak_close\":",
    ];

    let _ = std::fs::remove_file(&trace);
    let mut args = vec!["--coverage"];
    args.extend(flags);
    let log = read_trace(&check_stdout("models/priority_buffer.smv", &args));
    for needle in common.iter().chain(&["\"args\":{\"name\":\"front-end\"}"]) {
        assert!(log.contains(needle), "missing {needle} in:\n{log}");
    }
    assert!(
        !log.contains("\"args\":{\"name\":\"worker 0\"}"),
        "check runs no pool workers:\n{log}"
    );

    let log = read_trace(&batch_stdout(&["priority_buffer.smv"], &flags));
    for needle in common.iter().chain(&[
        "\"args\":{\"name\":\"worker 0\"}",
        "\"signals\":\"hi_cnt+lo_cnt\"",
    ]) {
        assert!(log.contains(needle), "missing {needle} in:\n{log}");
    }
}

/// `check` stdout with the timing columns of the coverage table masked
/// and, unless `keep_bdds`, its BDD-size columns too. A table row ends
/// in `NODES - TIME NODES - TIME`; the table runs from its `Circuit`
/// header to the next blank line.
fn mask_table(stdout: &str, keep_bdds: bool) -> Vec<String> {
    let mut in_table = false;
    stdout
        .lines()
        .map(|line| {
            if line.starts_with("Circuit ") {
                in_table = true;
            } else if line.is_empty() {
                in_table = false;
            }
            if !in_table || line.starts_with("Circuit ") {
                return line.to_owned();
            }
            let mut tokens: Vec<&str> = line.split_whitespace().collect();
            let n = tokens.len();
            assert!(n >= 6, "unexpected table row: {line}");
            tokens[n - 4] = "*";
            tokens[n - 1] = "*";
            if !keep_bdds {
                tokens[n - 6] = "*";
                tokens[n - 3] = "*";
            }
            tokens.join(" ")
        })
        .collect()
}

/// `--progress` emits heartbeat lines on stderr naming the phase,
/// iteration, BDD size, support width and the manager's live nodes, in
/// `check` and in every `batch` shard. Neither it nor `--stats` nor
/// `--jobs` changes the program `check` runs: stdout above `stats:` is
/// byte-identical to the default run's, the table's BDD counts included;
/// only the times may differ. `batch --progress` prints the default
/// run's stdout byte for byte.
#[test]
fn progress_heartbeat_lands_on_stderr_only() {
    let deck = repo_root().join("models/priority_buffer.smv");
    let run = |extra: &[&str]| {
        let out = covest()
            .arg("check")
            .arg(&deck)
            .arg("--coverage")
            .args(extra)
            .output()
            .expect("runs");
        assert!(out.status.success(), "check {extra:?} fails");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let above_stats = stdout.split("\nstats:").next().unwrap_or_default();
        (
            mask_table(above_stats, true),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let heartbeats = |stderr: &str| {
        assert!(stderr.contains("progress["), "no heartbeat in:\n{stderr}");
        assert!(
            stderr.lines().any(|l| l.contains(" iter=")
                && l.contains(" size=")
                && l.contains(" support=")
                && l.contains(" live=")),
            "heartbeat lacks fixpoint or memory gauges:\n{stderr}"
        );
    };
    let (default, _) = run(&[]);
    let (with, stderr) = run(&["--progress"]);
    heartbeats(&stderr);
    assert_eq!(with, default, "--progress must not perturb stdout");
    for extra in [&["--stats"][..], &["--jobs", "4"]] {
        let (with, _) = run(extra);
        assert_eq!(with, default, "{extra:?} must not change the run");
    }

    let joblist = write_joblist_of("covest-batch-progress.txt", &["priority_buffer.smv"]);
    let batch = |extra: &[&str]| {
        let out = covest()
            .arg("batch")
            .arg(&joblist)
            .args(extra)
            .output()
            .expect("runs");
        assert!(out.status.success(), "batch {extra:?} fails");
        (
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (default, _) = batch(&[]);
    let (with, stderr) = batch(&["--progress"]);
    let _ = std::fs::remove_file(&joblist);
    heartbeats(&stderr);
    assert_eq!(with, default, "batch --progress must not perturb stdout");
}

/// Parses the `bdd_peak_live_nodes` counter and the maximum of the
/// `peak-live by phase` table from one `--stats` block.
fn peak_counter_and_table_max(block: &str) -> (u64, u64) {
    let counter: u64 = block
        .lines()
        .find(|l| l.trim_start().starts_with("bdd_peak_live_nodes"))
        .and_then(|l| l.split_whitespace().last())
        .expect("bdd_peak_live_nodes line")
        .parse()
        .expect("counter parses");
    let table_at = block.find("peak-live by phase").expect("peak table");
    let table_max = block[table_at..]
        .lines()
        .skip(1)
        .take_while(|l| l.starts_with("      "))
        .filter_map(|l| l.split_whitespace().last())
        .filter_map(|v| v.parse::<u64>().ok())
        .max()
        .expect("table rows");
    (counter, table_max)
}

/// `--stats` surfaces the per-phase peak-live attribution: a block's
/// table maximum must equal its `bdd_peak_live_nodes` counter (the
/// acceptance reconciliation). `check` reconciles its front-end block;
/// `batch` its shard block, whose peak/reorder line rides along.
#[test]
fn stats_peak_table_reconciles_with_high_water_counter() {
    let flags = ["--stats", "--jobs", "4"];
    let stdout = check_stdout(
        "models/counter.smv",
        &[&["--coverage"][..], &flags].concat(),
    );
    let section = stats_counters(&stdout);
    let front_at = section.find("  front-end\n").expect("front-end block");
    let front = &section[front_at..];
    assert!(front.contains("peak-live by phase"), "{front}");
    let (counter, table_max) = peak_counter_and_table_max(front);
    assert_eq!(
        table_max, counter,
        "peak table max must equal bdd_peak_live_nodes:\n{front}"
    );

    let stdout = batch_stdout(&["counter.smv"], &flags);
    let section = &stdout[stdout.find("stats:").expect("stats section")..];
    assert!(section.contains("peak live "), "{section}");
    assert!(section.contains("  reorder "), "{section}");
    let shard = &section[section.find("  shard ").expect("shard block")..];
    let (counter, table_max) = peak_counter_and_table_max(shard);
    assert_eq!(
        table_max, counter,
        "peak table max must equal bdd_peak_live_nodes:\n{shard}"
    );
}

/// `check --coverage` compiles the union of the analyzed signals'
/// cones, and plain `check` the full deck. The verdicts and
/// counterexamples of a `--coverage --traces 3` run must equal plain
/// `check`'s, line for line: a cone run prints its counterexamples from
/// the full deck, and a witness is the smallest state in declaration
/// order, whatever the sift found. Inputs: every bundled deck, a sized
/// pipeline with a coverage hole and a dead debug register, and a signal
/// outside every property's cone. The `--dot` dump of a cone run comes
/// from the full deck too, and equals plain `check --dot` byte for byte.
/// The sized pipeline's trace blocks, whose targets the cone machine
/// names, equal the library's traces on the full deck.
#[test]
fn check_cone_output_matches_the_full_deck() {
    use covest_circuits::pipeline;
    use std::fmt::Write as _;

    let mut sized = pipeline::deck_sized(4);
    for spec in pipeline::out_suite_initial(4) {
        writeln!(sized, "SPEC {spec};").expect("write to string");
    }
    let sized_path = std::env::temp_dir().join("covest-cone-pipeline_d4.smv");
    std::fs::write(&sized_path, &sized).expect("write deck");

    let mut inputs: Vec<(std::path::PathBuf, Vec<&str>)> =
        std::fs::read_dir(repo_root().join("models"))
            .expect("models directory")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "smv"))
            .map(|p| (p, Vec::new()))
            .collect();
    inputs.sort();
    inputs.push((sized_path.clone(), Vec::new()));
    inputs.push((
        repo_root().join("models/priority_buffer.smv"),
        vec!["--observed", "lo_accepted"],
    ));

    let run = |deck: &std::path::Path, args: &[&str]| -> String {
        let out = covest()
            .arg("check")
            .arg(deck)
            .args(args)
            .output()
            .expect("runs");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Everything below the model and `reorder (sift):` lines.
    let body =
        |stdout: &str| -> Vec<String> { stdout.lines().skip(2).map(str::to_owned).collect() };
    for (deck, extra) in &inputs {
        let full = run(deck, &[]);
        let cone = run(
            deck,
            &[&["--coverage", "--traces", "3"][..], extra].concat(),
        );
        let verdicts = body(&full);
        assert!(
            verdicts
                .iter()
                .any(|l| l.starts_with("[PASS] ") || l.starts_with("[FAIL] ")),
            "{full}"
        );
        assert!(
            body(&cone).starts_with(&verdicts),
            "{} {extra:?}: verdicts and counterexamples differ from the full deck's\n\
             --- check ---\n{full}--- check --coverage ---\n{cone}",
            deck.display()
        );
        let name = deck.file_name().unwrap().to_string_lossy();
        if name == "priority_buffer_buggy.smv" {
            // The failing property's counterexample lists the full state
            // vector, including bits outside every property's cone.
            assert!(
                cone.lines()
                    .any(|l| l.starts_with("step 0: ") && l.contains("lo_accepted.0=")),
                "{cone}"
            );
        }
        if deck == &sized_path {
            assert!(cone.contains("in the cone of influence"), "{cone}");
            assert!(cone.contains("trace to uncovered state:"), "{cone}");
            let lines: Vec<&str> = cone.lines().collect();
            let first = lines
                .iter()
                .position(|l| *l == "trace to uncovered state:")
                .expect("a trace block");
            let table = lines
                .iter()
                .position(|l| l.starts_with("Circuit"))
                .expect("the table");
            assert_eq!(
                lines[first..table - 1],
                full_deck_traces(&sized, 3),
                "{cone}"
            );
            // More traces than the row lists states: the row keeps its
            // ten, and the traces reach the first twelve.
            let more = run(deck, &["--coverage", "--traces", "12"]);
            let lines: Vec<&str> = more.lines().collect();
            let first = lines
                .iter()
                .position(|l| *l == "trace to uncovered state:")
                .expect("a trace block");
            let table = lines
                .iter()
                .position(|l| l.starts_with("Circuit"))
                .expect("the table");
            assert_eq!(lines[..first], cone.lines().collect::<Vec<_>>()[..first]);
            assert_eq!(
                lines[first..table - 1],
                full_deck_traces(&sized, 12),
                "{more}"
            );
        }
    }
    let _ = std::fs::remove_file(sized_path);

    // The reachable-set dump of a cone run comes from the full deck.
    let dot = |coverage: bool| -> Vec<u8> {
        let path = std::env::temp_dir().join(format!("covest-dot-{coverage}.dot"));
        let mut args = vec!["--dot", path.to_str().unwrap()];
        if coverage {
            args.push("--coverage");
        }
        check_stdout("models/priority_buffer.smv", &args);
        let bytes = std::fs::read(&path).expect("dot written");
        let _ = std::fs::remove_file(path);
        bytes
    };
    assert_eq!(dot(true), dot(false), "--dot must not depend on --coverage");
}

/// The trace blocks `check --coverage --traces N` prints for `source`'s
/// single observed signal, computed by the library on the full deck:
/// the signal's analysis over its cone, then traces to the canonical
/// sample of its uncovered states over that cone.
fn full_deck_traces(source: &str, traces: usize) -> Vec<String> {
    let module = covest_smv::parse_module(source).expect("deck parses");
    let signals: Vec<String> = module.observed.iter().map(|o| o.name.clone()).collect();
    let [task] = &covest_par::plan_machine(module.clone(), &signals)
        .expect("deck plans")
        .tasks[..]
    else {
        panic!("one observed signal");
    };
    let bdd = covest_bdd::BddManager::new();
    let (model, _) = covest_par::compile_machine(&bdd, &module).expect("deck compiles");
    let estimator = covest_core::CoverageEstimator::new(&model.fsm);
    let options = covest_core::CoverageOptions {
        fairness: model.fairness.clone(),
        cone: Some(task.cone.clone()),
        ..Default::default()
    };
    let analysis = estimator
        .analyze(&task.signal, &model.specs, &options)
        .expect("analyzes");
    let universe = estimator.universe(Some(&task.cone));
    let found = estimator.traces_to_states_over(&analysis.uncovered(), &universe, traces);
    assert_eq!(found.len(), traces, "the deck has a hole");
    found
        .iter()
        .flat_map(|t| {
            format!("trace to uncovered state:\n{t}\n")
                .lines()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A SPEC outside the ACTL subset is named the same way by `check`,
/// `check --coverage` and `batch`: the message compile gives. `lint`
/// keeps its own `bad-property` line.
#[test]
fn bad_property_is_named_the_same_way_on_every_path() {
    let deck = repo_root().join("models/lint_fixtures/bad_property.smv");
    let reason = "formula outside the acceptable ACTL subset: E... \
                  (existential path quantifiers are not universal (ACTL) formulas)";
    let model_error = format!("model error: SPEC `EG ( x )`: {reason}");
    let run = |args: &[&str]| {
        let out = covest().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let path = deck.to_str().expect("utf-8 path");
    for args in [&["check", path][..], &["check", path, "--coverage"]] {
        assert_eq!(
            run(args),
            (String::new(), format!("error: {model_error}\n")),
            "{args:?}"
        );
    }

    let joblist = write_joblist_of(
        "covest-bad-property-joblist.txt",
        &["lint_fixtures/bad_property.smv"],
    );
    let (stdout, stderr) = run(&["batch", joblist.to_str().expect("utf-8 path")]);
    assert_eq!(stdout, "");
    assert_eq!(stderr, format!("error: planning `{path}`: {model_error}\n"));
    let _ = std::fs::remove_file(joblist);

    assert_eq!(
        run(&["lint", path]),
        (
            format!(
                "{path}:8: error [bad-property] SPEC `EG ( x )` does not parse: {reason}\n\
                 lint: 1 decks, 1 errors, 0 warnings\n"
            ),
            String::new()
        )
    );
}

/// A name declared twice, a variable or a `DEFINE`, is an error on every
/// path, named as compile names it, and `lint` flags it as
/// `duplicate-name` at the repeat. The planner rejects it first, on
/// every run: `check --coverage` and `batch` used to pass a deck whose
/// repeat the cone of influence pruned (the second and third decks),
/// and `lint` to pass the third.
#[test]
fn repeated_define_fails_alike_on_every_path() {
    let decks = [
        (
            "covest-repeated-define.smv",
            "VAR a : boolean; b : boolean; c : boolean;\n\
             ASSIGN\n  init(a) := FALSE; next(a) := !a;\n  init(b) := FALSE; next(b) := b;\n  \
             init(c) := FALSE; next(c) := d;\n\
             DEFINE d := a; d := b;\n\
             SPEC AG (c -> AX TRUE);\n\
             OBSERVED c;\n",
            6,
            "duplicate DEFINE `d`",
        ),
        (
            "covest-repeated-var.smv",
            "VAR a : boolean; c : boolean;\n    a : boolean;\n\
             ASSIGN next(a) := !a; next(c) := !c;\n\
             OBSERVED c;\n",
            2,
            "duplicate variable `a`",
        ),
        (
            "covest-repeated-pruned-define.smv",
            "VAR a : boolean; c : boolean;\n\
             DEFINE e := a; e := !a;\n\
             ASSIGN next(a) := !a; next(c) := !c;\n\
             OBSERVED c;\n",
            2,
            "duplicate DEFINE `e`",
        ),
    ];
    for (file, source, line, message) in decks {
        let deck = std::env::temp_dir().join(file);
        std::fs::write(&deck, source).expect("write deck");
        let path = deck.to_str().expect("utf-8 path");
        let joblist = write_joblist_of(&format!("{file}-joblist.txt"), &[path]);
        let model_error = format!("model error: {message}");
        for (args, stderr) in [
            (&["check", path][..], format!("error: {model_error}\n")),
            (
                &["check", path, "--coverage"],
                format!("error: {model_error}\n"),
            ),
            (
                &["batch", joblist.to_str().expect("utf-8 path")],
                format!("error: planning `{path}`: {model_error}\n"),
            ),
        ] {
            let out = covest().args(args).output().expect("runs");
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{args:?}");
            assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "{args:?}");
        }
        let out = covest().args(["lint", path]).output().expect("runs");
        assert_eq!(out.status.code(), Some(1), "lint {file}");
        let finding = format!("{path}:{line}: error [duplicate-name] {message}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.lines().any(|l| l == finding),
            "lint {file}:\n{stdout}"
        );
        let _ = std::fs::remove_file(joblist);
        let _ = std::fs::remove_file(deck);
    }
}

/// Runs `cmd` to completion, failing the test if it outlives `secs`.
fn output_within(cmd: &mut Command, secs: u64) -> std::process::Output {
    use std::process::Stdio;
    use std::time::Duration;

    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    let clock = covest_telemetry::Stopwatch::start();
    while child.try_wait().expect("polls").is_none() {
        if clock.elapsed() > Duration::from_secs(secs) {
            let _ = child.kill();
            panic!("{cmd:?} still running after {secs} s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collects output")
}

/// Integer ranges and arithmetic at the edges of `i64` fail cleanly:
/// exit 1 with a message, no panic and no hang, on every command that
/// reads the deck.
#[test]
fn oversized_ranges_and_overflow_fail_cleanly() {
    let dir = std::env::temp_dir().join("covest-int-edges");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let body = "ASSIGN\n  init(x) := 0;\n  next(x) := x;\nSPEC AG (x = x);\nOBSERVED x;\n";
    let mut cases: Vec<(std::path::PathBuf, &str, bool)> = Vec::new();
    for (name, range) in [
        ("full", "-9223372036854775807..9223372036854775807"),
        ("half", "0..9223372036854775807"),
        ("wide", "0..4294967296"),
    ] {
        let path = dir.join(format!("{name}.smv"));
        std::fs::write(&path, format!("MODULE main\nVAR x : {range};\n{body}")).expect("deck");
        let message = "has more than 65536 values";
        cases.push((path, message, true));
    }
    let path = dir.join("overflow.smv");
    std::fs::write(
        &path,
        "MODULE main\nVAR x : 9223372036854775806..9223372036854775807;\n\
         ASSIGN\n  init(x) := 9223372036854775806;\n  next(x) := x + 1;\nOBSERVED x;\n",
    )
    .expect("deck");
    // Lint reads no arithmetic, so only the commands that compile fail.
    cases.push((
        path,
        "overflows 64-bit integer arithmetic in `x + 1`",
        false,
    ));

    for (deck, message, lint_fails) in &cases {
        let joblist = dir.join("joblist.txt");
        std::fs::write(&joblist, format!("{}\n", deck.display())).expect("joblist");
        let mut commands = vec![
            vec!["check".to_owned(), deck.display().to_string()],
            vec![
                "check".to_owned(),
                deck.display().to_string(),
                "--coverage".to_owned(),
            ],
            vec!["batch".to_owned(), joblist.display().to_string()],
        ];
        if *lint_fails {
            commands.push(vec!["lint".to_owned(), deck.display().to_string()]);
        }
        for args in commands {
            let out = output_within(covest().args(&args), 60);
            let text = format!(
                "{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(out.status.code(), Some(1), "{args:?}: {text}");
            assert!(text.contains(message), "{args:?}: {text}");
            assert!(!text.contains("panicked"), "{args:?}: {text}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The decks `gen-models --size N` writes, by file name.
fn sized_decks(n: u32) -> Vec<(String, String)> {
    use covest_circuits::{counter, pipeline};
    use std::fmt::Write as _;

    fn with_specs(mut deck: String, specs: &[impl std::fmt::Display]) -> String {
        for spec in specs {
            writeln!(deck, "SPEC {spec};").expect("write to string");
        }
        deck
    }
    let stages = n as usize;
    let mut pipeline_suite = pipeline::out_suite_initial(stages);
    pipeline_suite.extend(pipeline::out_suite_hold());
    vec![
        (
            format!("counter_m{n}.smv"),
            with_specs(
                counter::deck_sized(n),
                &counter::increment_properties_sized(n),
            ),
        ),
        (
            format!("pipeline_d{n}.smv"),
            with_specs(pipeline::deck_sized(stages), &pipeline_suite),
        ),
    ]
}

/// Every bundled deck, then the `gen-models --size 6` decks written
/// into `dir`.
fn bundled_and_sized_decks(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut decks: Vec<std::path::PathBuf> = std::fs::read_dir(repo_root().join("models"))
        .expect("models directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smv"))
        .collect();
    decks.sort();
    for (name, source) in sized_decks(6) {
        let path = dir.join(name);
        std::fs::write(&path, source).expect("write deck");
        decks.push(path);
    }
    decks
}

/// A deck observing two signals with disjoint cones and no property.
const SPECLESS_DECK: &str = "MODULE main\nVAR a : boolean;\n    b : boolean;\nASSIGN\n  \
                             init(a) := FALSE;\n  next(a) := !a;\n  init(b) := FALSE;\n  \
                             next(b) := b;\nOBSERVED a, b;\n";

/// `s` with every `*_ms` JSON field removed.
fn scrub_ms(s: &str) -> String {
    let mut s = s.to_owned();
    for key in [", \"verify_ms\": ", ", \"coverage_ms\": "] {
        while let Some(at) = s.find(key) {
            let start = at + key.len();
            let end = start
                + s[start..]
                    .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                    .expect("value ends");
            s.replace_range(at..end, "");
        }
    }
    s
}

/// `check` is a one-deck batch on the caller's thread: its `--json` rows
/// equal those `batch --json` writes for a one-deck joblist naming the
/// same path — every field but the `*_ms` timings, node counts included.
/// Inputs: every bundled deck, the `gen-models --size 6` decks, and a
/// SPEC-less deck observing two signals with disjoint cones.
#[test]
fn check_rows_equal_one_deck_batch_rows() {
    let dir = std::env::temp_dir().join("covest-check-vs-batch");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut decks = bundled_and_sized_decks(&dir);
    let specless = dir.join("specless.smv");
    std::fs::write(&specless, SPECLESS_DECK).expect("write deck");
    decks.push(specless);
    let (check_json, batch_json, joblist) = (
        dir.join("check.json"),
        dir.join("batch.json"),
        dir.join("joblist.txt"),
    );
    for deck in &decks {
        let out = covest()
            .arg("check")
            .arg(deck)
            .args(["--coverage", "--json"])
            .arg(&check_json)
            .output()
            .expect("runs");
        assert!(out.status.success(), "check {}", deck.display());
        std::fs::write(&joblist, format!("{}\n", deck.display())).expect("joblist");
        let out = covest()
            .arg("batch")
            .arg(&joblist)
            .arg("--json")
            .arg(&batch_json)
            .output()
            .expect("runs");
        assert!(out.status.success(), "batch {}", deck.display());
        let read = |p: &std::path::Path| scrub_ms(&std::fs::read_to_string(p).expect("json"));
        let (check_rows, batch_rows) = (read(&check_json), read(&batch_json));
        assert_eq!(
            check_rows.lines().count(),
            batch_rows.lines().count(),
            "{}",
            deck.display()
        );
        for (c, b) in check_rows.lines().zip(batch_rows.lines()) {
            assert_eq!(c, b, "{}: check and batch rows differ", deck.display());
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `check` verifies once per machine: the trace of a two-signal run holds
/// exactly one `verify` span, carrying the suite size, at the machine
/// level — outside every `signal:*` span.
#[test]
fn check_verifies_once_per_machine() {
    let trace = std::env::temp_dir().join("covest-verify-once.jsonl");
    check_stdout(
        "models/priority_buffer.smv",
        &["--coverage", "--trace", trace.to_str().unwrap()],
    );
    let log = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let verify: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"name\":\"verify\""))
        .collect();
    assert_eq!(verify.len(), 1, "{log}");
    assert!(verify[0].contains("\"properties\":11"), "{}", verify[0]);
    assert!(verify[0].contains("\"parent\":null"), "{}", verify[0]);
    let signals = log
        .lines()
        .filter(|l| l.contains("\"name\":\"signal:"))
        .count();
    assert_eq!(signals, 2, "{log}");
}

/// The raw value of `"key":` in a one-line JSON trace record.
fn record_field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\":")).expect("field present") + key.len() + 3;
    let len = line[at..].find([',', '}']).expect("value ends");
    &line[at..at + len]
}

/// Coverage reuses the reach phase's fixpoint: every bundled and
/// `--size 6` suite starts its `AG`s at the initial states, so no
/// `reachability` span sits under a `coverage` span.
#[test]
fn coverage_runs_no_reachability_fixpoint() {
    let dir = std::env::temp_dir().join("covest-flow-trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    for deck in bundled_and_sized_decks(&dir) {
        let out = covest()
            .arg("check")
            .arg(&deck)
            .args(["--coverage", "--trace"])
            .arg(&trace)
            .output()
            .expect("runs");
        assert!(out.status.success(), "check {}", deck.display());
        let log = std::fs::read_to_string(&trace).expect("trace written");
        let spans: std::collections::HashMap<&str, (&str, &str)> = log
            .lines()
            .filter(|l| record_field(l, "type") == "\"span\"")
            .map(|l| {
                let field = |key| record_field(l, key);
                (field("id"), (field("parent"), field("name")))
            })
            .collect();
        let count = |n: &str| spans.values().filter(|&&(_, name)| name == n).count();
        assert!(count("\"coverage\"") > 0, "{}", deck.display());
        assert!(count("\"reachability\"") > 0, "{}", deck.display());
        for (id, &(mut parent, name)) in &spans {
            if name != "\"reachability\"" {
                continue;
            }
            while let Some(&(up, above)) = spans.get(parent) {
                assert_ne!(above, "\"coverage\"", "{}: span {id}", deck.display());
                parent = up;
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `check`'s `reach` time covers the reachability fixpoint: on every
/// bundled and `--size 6` deck, `--json`'s `reach_ms` is at least the
/// duration of the trace's root-level `reachability` span (give or take
/// the microsecond the two formats round off).
#[test]
fn check_reach_times_the_reachability_fixpoint() {
    let dir = std::env::temp_dir().join("covest-reach-time");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (trace, json) = (dir.join("trace.jsonl"), dir.join("stats.json"));
    for deck in bundled_and_sized_decks(&dir) {
        let out = covest()
            .arg("check")
            .arg(&deck)
            .args(["--coverage", "--stats", "--trace"])
            .arg(&trace)
            .arg("--json")
            .arg(&json)
            .output()
            .expect("runs");
        assert!(out.status.success(), "check {}", deck.display());
        let log = std::fs::read_to_string(&trace).expect("trace written");
        let spans: Vec<u64> = log
            .lines()
            .filter(|l| {
                record_field(l, "name") == "\"reachability\"" && record_field(l, "parent") == "null"
            })
            .map(|l| {
                let us = |key| record_field(l, key).parse::<u64>().expect("microseconds");
                us("end_us") - us("start_us")
            })
            .collect();
        let [span_us] = spans[..] else {
            panic!(
                "{}: one root-level reachability span: {log}",
                deck.display()
            );
        };
        let doc = std::fs::read_to_string(&json).expect("json written");
        let (_, tail) = doc.split_once("\"reach_ms\": ").expect("reach_ms");
        let reach_ms: f64 = tail[..tail.find(',').expect("more fields")]
            .parse()
            .expect("milliseconds");
        let reach_us = (reach_ms * 1e3).round() as u64;
        assert!(
            reach_us + 1 >= span_us,
            "{}: reach {reach_us} us < reachability span {span_us} us",
            deck.display()
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A property naming an unknown signal fails verification, which runs
/// before any signal's coverage: `batch` names the deck's verification,
/// not its first signal, and `check` prints the bare message.
#[test]
fn suite_errors_blame_the_verification() {
    let dir = std::env::temp_dir().join("covest-suite-error");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(
        dir.join("unk.smv"),
        "MODULE main\nVAR b : boolean;\nASSIGN init(b) := FALSE; next(b) := !b;\n\
         SPEC AG (nope -> AX b);\nOBSERVED b;\n",
    )
    .expect("deck");
    std::fs::write(dir.join("joblist.txt"), "unk.smv\n").expect("joblist");
    let stderr = |args: &[&str]| {
        let out = covest()
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert_eq!(
        stderr(&["batch", "joblist.txt"]),
        "error: verifying `unk.smv`: unknown signal `nope`\n"
    );
    assert_eq!(
        stderr(&["check", "unk.smv", "--coverage"]),
        "error: unknown signal `nope`\n"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A reader that closes stdout after one line ends the output: every
/// subcommand stops quietly with status 141 instead of panicking on the
/// next write. Each run prints far more than a pipe buffer holds, so
/// that write is certain to fail.
#[test]
fn closed_stdout_ends_the_output_quietly() {
    use std::io::BufRead as _;
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("covest-closed-stdout");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut deck = String::from(
        "MODULE main\nVAR b : boolean;\nASSIGN init(b) := FALSE; next(b) := !b;\nOBSERVED b;\n",
    );
    deck.push_str(&"SPEC AG (b -> AX !b);\n".repeat(8000));
    let deck_path = dir.join("many_specs.smv");
    std::fs::write(&deck_path, deck).expect("deck");
    let joblist = dir.join("joblist.txt");
    std::fs::write(&joblist, "many_specs.smv\n").expect("joblist");
    let fixture = repo_root().join("models/lint_fixtures/dead_var.smv");
    let deck_arg = deck_path.to_str().expect("utf-8 path");
    let joblist_arg = joblist.to_str().expect("utf-8 path");
    let fixture_arg = fixture.to_str().expect("utf-8 path");

    let mut lint = vec!["lint"];
    lint.extend(std::iter::repeat_n(fixture_arg, 2000));
    for args in [
        vec!["check", deck_arg, "--coverage"],
        vec!["batch", joblist_arg],
        lint,
    ] {
        let mut child = covest()
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("reads a line");
        assert!(!line.is_empty(), "{}: no output", args[0]);
        drop(stdout);
        let out = child.wait_with_output().expect("exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "{}: {stderr}", args[0]);
        assert!(stderr.is_empty(), "{}: {stderr}", args[0]);
    }
    let _ = std::fs::remove_dir_all(dir);
}
