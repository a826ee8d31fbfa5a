#!/usr/bin/env python3
"""Layered benchmark for `covest check` and `covest batch`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--expected FILE] [--spans-out FILE]

Run from the root of a checkout. It builds the release `covest` CLI and
the helper in perfbench/harness (into $CARGO_TARGET_DIR, default
.bench_build), writes the workload's decks into a scratch directory under
.bench_work (sized decks from the circuits builders, bundled decks copied
from models/), and then:

  --trace 0  runs the CLI with default engine flags in a closed loop (one
             process at a time, the next one spawned after the previous
             exits) for S seconds, timestamps its stdout lines as they
             arrive, takes CPU time and peak RSS from wait4, and checks
             every report against expected.json. Prints the end-to-end
             metrics: wall_s, setup_s, verdict_s, cpu_s and peak_rss_mb
             as medians with quartiles, of which setup_s and peak_rss_mb
             go into the result line.
  --trace 1  alternates one untraced CLI run with one traced in-process
             replay of the same workload (the harness's `replay`) for S
             seconds, checks replay parity against the CLI report and the
             replay's span tree against SPAN_PARENTS, and prints the
             per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Timed runs never pass --stats, --trace, --progress or --json:
those move coverage onto the worker pool, so the timed program would no
longer be the one users run.

--smoke swaps in tiny decks (pipeline_d8, counter_m20, a 3-deck fleet) for
the self-tests in perfbench/tests.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Why each workload exists: see BENCHMARK.json and perfbench/record.json.
# BENCHMARK.json lists all but check_counter_wide, left out so that the
# other two get longer runs in the same time; it stays runnable here for
# local comparisons.
WORKLOADS = ("check_pipeline_deep", "check_counter_wide", "batch_fleet")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Printed by --trace 0 (verdict_s on the check workloads only) but left out
# of the result line. On a shared 2-core host the processor's speed drifts
# up to twofold over minutes, so the medians of whole-run times spread past
# the largest bound BENCHMARK.json may set. --trace 1 reports the untraced
# process's wall and CPU time as the unbounded cli.wall_s and cli.cpu_s.
PRINTED_ONLY = {"wall_s": "s", "verdict_s": "s", "cpu_s": "s"}

PER_LAYER = {
    "cli.wall_s": "s",
    "cli.cpu_s": "s",
    "smv.parse_s": "s",
    "smv.compile_s": "s",
    "smv.state_bits": "count",
    "smv.clusters": "count",
    "bdd.sift_s": "s",
    "bdd.sift_swaps": "count",
    "bdd.sift_nodes_before": "count",
    "bdd.sift_nodes_after": "count",
    "bdd.pair_hit_rate": "ratio",
    "bdd.pair_lookups": "count",
    "bdd.quant_hit_rate": "ratio",
    "bdd.quant_lookups": "count",
    "bdd.ite_hit_rate": "ratio",
    "bdd.ite_lookups": "count",
    "bdd.unique_hit_rate": "ratio",
    "bdd.unique_lookups": "count",
    "bdd.restrict_hit_rate": "ratio",
    "bdd.restrict_lookups": "count",
    "bdd.peak_live_nodes": "count",
    "bdd.gc_runs": "count",
    "bdd.gc_reclaimed": "count",
    "bdd.arena_mb": "MB",
    "fsm.reach_s": "s",
    "fsm.reach_nodes": "count",
    "mc.verify_s": "s",
    "mc.checks": "count",
    "mc.check_max_s": "s",
    "analyze.cone_s": "s",
    "analyze.cone_bits": "count",
    "analyze.cone_frac": "ratio",
    "core.analyze_s": "s",
    "core.verify_s": "s",
    "core.coverage_s": "s",
    "core.per_property_ms": "ms",
    "core.properties": "count",
    "core.coverage_nodes": "count",
    "core.sample_s": "s",
    "par.plan_s": "s",
    "par.run_s": "s",
    "par.workers": "count",
    "par.shards": "count",
    "par.steals": "count",
    "par.busy_s": "s",
    "par.idle_frac": "ratio",
    "par.queue_wait_max_s": "s",
    "par.longest_shard_s": "s",
    "par.shard_compile_s": "s",
    "par.shard_reach_s": "s",
    "par.shard_solve_s": "s",
    "par.shard_peak_live_max": "count",
    "trace.overhead_s": "s",
}

# The replay's declared span tree: every span name and the span it must
# nest in (None for the root).
SPAN_PARENTS = {
    "replay": None,
    "smv.parse": "replay",
    "smv.compile": "replay",
    "bdd.sift": "replay",
    "fsm.reach": "replay",
    "mc.verify": "replay",
    "mc.check": "mc.verify",
    "analyze.graph": "replay",
    "signal": "replay",
    "analyze.cone": "signal",
    "core.analyze": "signal",
    "core.sample": "signal",
    "par.plan": "replay",
    "par.run": "replay",
}

# WorkPlan::plan takes tens of milliseconds; time it this often after
# every CLI run of the fleet and report the median over the whole run.
PLAN_REPEATS = 11
# Each CLI run and each replay must finish well inside the 180 s a whole
# benchmark invocation may take.
PROCESS_TIMEOUT_S = 150
MIN_TIMED_RUNS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build


def build():
    """Builds the CLI and the harness; returns their executable paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "covest-cli"]),
        (os.path.join(HERE, "harness", "Cargo.toml"), []),
    ):
        if not os.path.isfile(manifest):
            raise BenchError(f"missing {manifest}: run from a covest checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "covest-cli"), os.path.join(release, "perfbench-harness")


def harness_json(harness, args, cwd):
    done = subprocess.run(
        [harness] + args, cwd=cwd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchError(f"harness {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- oracle


def load_expected(path):
    with open(path) as f:
        return json.load(f)


def _formula(text, n):
    if not re.fullmatch(r"[0-9n+*() -]+", text):
        raise BenchError(f"bad formula {text!r} in expected file")
    return eval(text, {"__builtins__": {}}, {"n": n})  # digits, n, + - * ( ) only


def expected_for(expected, deck):
    """Expected (verdicts, {signal: (covered, space)}) for one deck file.
    Counts are exact integers (a space can hold 3 * 2^103 states)."""
    if deck in expected["decks"]:
        entry = expected["decks"][deck]
        signals = {s: (int(c), int(sp)) for s, (c, sp) in entry["signals"].items()}
        return entry["verdicts"], signals
    m = re.fullmatch(r"([a-z]+_[a-z])(\d+)\.smv", deck)
    if not m or m.group(1) not in expected["families"]:
        raise BenchError(f"no expected values for deck {deck}")
    family, n = expected["families"][m.group(1)], int(m.group(2))
    verdicts = "P" * _formula(family["properties"], n)
    signals = {
        s: (_formula(v["covered"], n), _formula(v["space"], n))
        for s, v in family["signals"].items()
    }
    return verdicts, signals


def percent_matches(printed, covered, space):
    """The CLI prints percentages with two decimals."""
    return abs(float(printed) - 100.0 * covered / space) <= 0.005 + 1e-9


VERDICT = re.compile(r"^\s*\[(PASS|FAIL)\] SPEC ")
UNCOVERED = re.compile(r"^uncovered states for `(\S+)`:$")


def parse_check(lines):
    """Verdicts, table rows {signal: (nprop, percent)}, trace count and
    the signals with an uncovered-state listing."""
    verdicts = "".join("P" if m.group(1) == "PASS" else "F" for m in map(VERDICT.match, lines) if m)
    rows, in_table = {}, False
    for line in lines:
        if line.startswith("Circuit "):
            in_table = True
            continue
        m = re.match(r"^(\S+)\s+(\S+)\s+(\d+)\s+([0-9.]+)\s", line) if in_table else None
        if m:
            rows[m.group(2)] = (int(m.group(3)), m.group(4))
    traces = sum(1 for line in lines if line == "trace to uncovered state:")
    holes = {m.group(1) for m in map(UNCOVERED.match, lines) if m}
    return verdicts, rows, traces, holes


def check_report(lines, deck, traces_flag, expected):
    """Compares one `covest check` report with the expected file; returns
    a list of differences (empty when the report is right). The table
    prints two decimals, so a full cover is also told by the absence of
    the uncovered-state listing the CLI prints for any hole."""
    want_verdicts, want_signals = expected_for(expected, deck)
    verdicts, rows, traces, holes = parse_check(lines)
    diffs = []
    if verdicts != want_verdicts:
        diffs.append(f"verdicts {verdicts} != {want_verdicts}")
    want_traces = 0
    for signal, (covered, space) in want_signals.items():
        if signal not in rows:
            diffs.append(f"no table row for {signal}")
            continue
        nprop, percent = rows[signal]
        if nprop != len(want_verdicts) or not percent_matches(percent, covered, space):
            diffs.append(f"{signal}: {percent}% over {nprop} properties")
        if (signal in holes) != (covered < space):
            diffs.append(f"{signal}: uncovered-state listing {'printed' if signal in holes else 'missing'}")
        if covered < space:
            want_traces += min(traces_flag, int(space - covered))
    if traces != want_traces:
        diffs.append(f"{traces} traces printed, expected {want_traces}")
    return diffs


BATCH_SIGNAL = re.compile(r"^  signal (\S+): ([0-9.]+)% covered \((\S+) of (\S+) states\)$")


def parse_batch(lines):
    """{deck: {"verdicts": str, "signals": {signal: (percent, covered, space)}}}."""
    decks, cur = {}, None
    for line in lines:
        m = re.match(r"^deck (\S+): (\d+) properties$", line)
        if m:
            cur = decks.setdefault(m.group(1), {"verdicts": "", "signals": {}})
            continue
        if cur is None:
            continue
        m = VERDICT.match(line)
        if m:
            cur["verdicts"] += "P" if m.group(1) == "PASS" else "F"
            continue
        m = BATCH_SIGNAL.match(line)
        if m:
            cur["signals"][m.group(1)] = (m.group(2), float(m.group(3)), float(m.group(4)))
    return decks


def check_batch(lines, decks, expected):
    """Compares one `covest batch` report with the expected file, one
    signal analysis at a time; returns (analyses, failed analyses, diffs)."""
    got = parse_batch(lines)
    analyses = failed = 0
    diffs = []
    for deck in decks:
        want_verdicts, want_signals = expected_for(expected, deck)
        have = got.get(deck, {"verdicts": None, "signals": {}})
        for signal, (covered, space) in want_signals.items():
            analyses += 1
            row = have["signals"].get(signal)
            ok = (
                have["verdicts"] == want_verdicts
                and row is not None
                and row[1] == covered
                and row[2] == space
                and percent_matches(row[0], covered, space)
            )
            if not ok:
                failed += 1
                diffs.append(f"{deck}/{signal}: {have['verdicts']} {row}")
    return analyses, failed, diffs


# ---------------------------------------------------------------- timed CLI runs


def timed_cli_run(cli, args, cwd):
    """One CLI process: stdout lines timestamped on arrival (Rust's stdout
    is line-buffered), CPU time and peak RSS from wait4."""
    stderr = open(os.path.join(cwd, "cli.stderr"), "wb")
    t0 = time.perf_counter()
    proc = subprocess.Popen([cli] + args, cwd=cwd, stdout=subprocess.PIPE, stderr=stderr)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    stamped = []
    try:
        for raw in iter(proc.stdout.readline, b""):
            stamped.append((time.perf_counter() - t0, raw.decode(errors="replace").rstrip("\n")))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        stderr.close()
    lines = [line for _, line in stamped]
    setup = next((t for t, line in stamped if line.startswith("reorder (sift):")), None)
    verdict = max((t for t, line in stamped if VERDICT.match(line)), default=None)
    return {
        "exit": proc.returncode,
        "lines": lines,
        "wall_s": wall,
        "setup_s": setup,
        "verdict_s": verdict,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


class Tally:
    """Runs attempted and failed, in the workload's unit (one CLI run for
    check workloads, one signal analysis for the fleet)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.diffs = []

    def add(self, attempted, failed, diffs):
        self.attempted += attempted
        self.failed += failed
        self.diffs.extend(diffs)


def judge_cli_run(run, inputs, expected, tally):
    args, decks = inputs["args"], inputs["decks"]
    if args[0] == "batch":
        analyses, failed, diffs = check_batch(run["lines"], decks, expected)
        if run["exit"] != 0:
            failed, diffs = analyses, diffs + [f"exit code {run['exit']}"]
        tally.add(analyses, failed, diffs)
    else:
        traces = int(args[args.index("--traces") + 1]) if "--traces" in args else 0
        diffs = check_report(run["lines"], decks[0], traces, expected)
        if run["exit"] != 0:
            diffs.append(f"exit code {run['exit']}")
        tally.add(1, 1 if diffs else 0, diffs)


def quartiles(values):
    """Quartiles as `statistics.quantiles(values, n=4)` gives them, the
    method the steadiness record uses too."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------- trace 0


def printed_metrics(batch):
    """Every metric --trace 0 prints, with its unit. `batch` prints every
    line at exit, so the fleet has no verdict_s."""
    printed = dict(END_TO_END, **PRINTED_ONLY)
    if batch:
        del printed["verdict_s"]
    return printed


def measure_end_to_end(cli, harness, inputs, workdir, seconds, expected, tally):
    # Warm the executable's pages; the timed runs start from the same state.
    subprocess.run([cli], cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    batch = inputs["args"][0] == "batch"
    plan_s = []
    printed = printed_metrics(batch)
    samples = {name: [] for name in printed}
    deadline = time.perf_counter() + seconds
    runs = 0
    # Closed loop: spawn the next process only when the previous one has
    # exited and the next is expected to end before the deadline.
    while runs < MIN_TIMED_RUNS or (
        time.perf_counter() + statistics.median(samples["wall_s"]) <= deadline
    ):
        run = timed_cli_run(cli, inputs["args"], workdir)
        runs += 1
        log(f"run {runs}: " + ", ".join(
            f"{name} {run[name]:.6f}" for name in printed if run[name] is not None
        ))
        judge_cli_run(run, inputs, expected, tally)
        for name in printed:
            if run[name] is not None:
                samples[name].append(run[name])
        if batch:
            # `batch` prints nothing until it ends, so its set-up is the
            # untraced in-process WorkPlan::plan over the same fleet, timed
            # after every CLI run so the samples span the whole run.
            plan_s += harness_json(harness, ["plan", "fleet.txt", str(PLAN_REPEATS)], workdir)[
                "plan_s"
            ]
    if batch:
        samples["setup_s"] = plan_s
    metrics, lines = {}, []
    for name, unit in printed.items():
        values = samples[name]
        if not values:
            raise BenchError(f"no {name} samples: the CLI output lacks the line it keys on")
        q1, med, q3 = quartiles(values)
        if name in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{name}: {med:.6f} {unit} (median; q1 {q1:.6f}, q3 {q3:.6f}; n={len(values)})")
    return metrics, lines, runs


# ---------------------------------------------------------------- trace 1


def check_span_tree(path):
    """Every recorded span is declared and nests in its declared parent."""
    with open(path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    problems = []
    for span in spans:
        if span["name"] not in SPAN_PARENTS:
            problems.append(f"undeclared span {span['name']}")
            continue
        parent = None if span["parent"] is None else spans[span["parent"]]["name"]
        if parent != SPAN_PARENTS[span["name"]]:
            problems.append(f"span {span['name']} nests in {parent}")
        elif parent is not None:
            outer = spans[span["parent"]]
            if not outer["start_s"] <= span["start_s"] <= span["end_s"] <= outer["end_s"]:
                problems.append(f"span {span['name']} escapes {parent}")
    if not spans:
        problems.append("no spans recorded")
    return problems


def replay_parity(replay, run, inputs, expected):
    """The replay must reach the CLI run's verdicts, percentages and
    covered/space counts, and its exact counts must match the expected
    file (`covest check` prints no counts, only percentages); returns a
    list of differences."""
    diffs = []
    for deck in replay["decks"]:
        want_verdicts, want_signals = expected_for(expected, deck["name"])
        if deck["verdicts"] != want_verdicts:
            diffs.append(f"{deck['name']}: verdicts {deck['verdicts']} != {want_verdicts}")
        got = {s["signal"]: (float(s["covered"]), float(s["space"])) for s in deck["signals"]}
        if got != want_signals:
            diffs.append(f"{deck['name']}: counts {got} != {want_signals}")
    if inputs["args"][0] == "batch":
        got = parse_batch(run["lines"])
        for deck in replay["decks"]:
            have = got.get(deck["name"])
            if have is None or have["verdicts"] != deck["verdicts"]:
                diffs.append(f"{deck['name']}: verdicts differ")
                continue
            for s in deck["signals"]:
                row = have["signals"].get(s["signal"])
                if row is None or (row[0], row[1], row[2]) != (
                    s["percent"],
                    float(s["covered"]),
                    float(s["space"]),
                ):
                    diffs.append(f"{deck['name']}/{s['signal']}: {row} vs {s}")
    else:
        verdicts, rows, _, _ = parse_check(run["lines"])
        (deck,) = replay["decks"]
        if verdicts != deck["verdicts"]:
            diffs.append(f"verdicts {verdicts} vs {deck['verdicts']}")
        for s in deck["signals"]:
            row = rows.get(s["signal"])
            if row is None or row[1] != s["percent"]:
                diffs.append(f"{s['signal']}: {row} vs {s}")
    return diffs


def measure_layers(cli, harness, inputs, workdir, seconds, expected, tally, spans_out):
    spans = os.path.join(workdir, "spans.jsonl")
    totals, layer = [], {name: [] for name in PER_LAYER}
    walls = layer["cli.wall_s"]
    deadline = time.perf_counter() + seconds
    while not walls or (
        time.perf_counter() + statistics.median(walls) + statistics.median(totals) <= deadline
    ):
        run = timed_cli_run(cli, inputs["args"], workdir)
        judge_cli_run(run, inputs, expected, tally)
        walls.append(run["wall_s"])
        layer["cli.cpu_s"].append(run["cpu_s"])
        replay = harness_json(harness, ["replay", spans] + inputs["args"], workdir)
        totals.append(replay["total_s"])
        diffs = replay_parity(replay, run, inputs, expected) + check_span_tree(spans)
        tally.add(1, 1 if diffs else 0, ["replay: " + d for d in diffs])
        for name, value in replay["metrics"].items():
            if name in layer:
                layer[name].append(value)
        if spans_out:
            shutil.copyfile(spans, spans_out)
    layer["trace.overhead_s"] = [statistics.median(totals) - statistics.median(walls)]
    metrics, lines = {}, []
    for name, unit in PER_LAYER.items():
        if not layer[name]:
            raise BenchError(f"the replay did not report {name}")
        value = statistics.median(layer[name])
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name}: {value!r} {unit}")
    return metrics, lines, len(walls)


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny decks, for the self-tests")
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    ap.add_argument("--spans-out", help="keep the last replay's span forest here")
    opts = ap.parse_args()

    try:
        expected = load_expected(opts.expected)
        cli, harness = build()
        workdir = os.path.join(
            ROOT, ".bench_work", f"{opts.workload}-{opts.seed}-{os.getpid()}"
        )
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            gen = ["gen", opts.workload, str(opts.seed), workdir, os.path.join(ROOT, "models")]
            gen += ["--smoke"] if opts.smoke else []
            inputs = harness_json(harness, gen, workdir)
            tally = Tally()
            if opts.trace == 0:
                metrics, lines, runs = measure_end_to_end(
                    cli, harness, inputs, workdir, opts.seconds, expected, tally
                )
            else:
                metrics, lines, runs = measure_layers(
                    cli, harness, inputs, workdir, opts.seconds, expected, tally, opts.spans_out
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    unit = "signal analyses" if inputs["args"][0] == "batch" else "runs"
    if opts.trace == 1:
        unit += " and replays"
    print(f"workload {opts.workload}: covest-cli {' '.join(inputs['args'])} ({runs} runs)")
    for line in lines:
        print(line)
    print(
        f"failed_frac: {tally.failed / tally.attempted!r} ratio "
        f"({tally.failed} of {tally.attempted} {unit})"
    )
    for diff in tally.diffs[:20]:
        print(f"mismatch: {diff}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
