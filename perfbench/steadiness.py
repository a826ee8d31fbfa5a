#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py

Run from the root of a checkout. It makes two sets of runs of
`run.py --trace 0`, ten runs per set and workload with seeds 1..10, as a
benchmark check does. The sets are interleaved: for each workload and
seed, one run of set A, then one of set B, so a host that speeds up or
slows down over minutes moves both sets alike.

Per set, workload and metric it records the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median: for the metrics of the result line, and for the
medians run.py prints but keeps out of it (wall_s, verdict_s, cpu_s),
which show why those carry no bound. The check holds each spread
(setup_s excepted, as in the benchmark contract) and each set-to-set
median shift, in either direction, to the metric's bound in
BENCHMARK.json. The record is appended to perfbench/steadiness.json;
every earlier record is re-judged against the current bounds.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "steadiness.json")
SETS = ("A", "B")
SEEDS = range(1, 11)
# A median run.py prints but keeps out of the result line.
PRINTED = re.compile(r"^(wall_s|verdict_s|cpu_s): (\S+) \S+ \(median;")


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = []
    if os.path.exists(OUT):
        with open(OUT) as f:
            records = json.load(f)["records"]
    records.append({
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": _host(),
        "run_seconds": spec["run_seconds"],
        "sets": measure(spec),
    })
    for record in records:
        record["check"] = judge(record["sets"], bounds)
    with open(OUT, "w") as f:
        json.dump({
            "about": "Two interleaved sets of runs of the same code (seeds 1..10 per "
                     "workload), one record per measurement, as written by "
                     "perfbench/steadiness.py. A metric without a bound in "
                     "BENCHMARK.json is judged as unbounded.",
            "records": records,
        }, f, indent=1)
        f.write("\n")
    for record in records:
        print(f"record started {record['started']}:")
        for key, v in record["check"].items():
            verdict = {True: "ok", False: "OUT OF BOUNDS", None: "unbounded"}[v["within_bounds"]]
            print(f"  {key}: max spread {v['max_spread']:.3f}, median shift "
                  f"{v['median_shift']:+.3f} (bound {v['bound']}) {verdict}")


def run_once(spec, workload, seed):
    """The run's metric values: the result line's and the printed medians."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported wrong results")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for m in map(PRINTED.match, lines):
        if m:
            values[m.group(1)] = float(m.group(2))
    return values


def measure(spec):
    runs = {s: {} for s in SETS}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for s in SETS:
                t0 = time.time()
                runs[s].setdefault(workload, []).append(run_once(spec, workload, seed))
                print(f"set {s} {workload} seed {seed}: {time.time() - t0:.0f} s",
                      file=sys.stderr, flush=True)
    return [
        {
            workload: {name: summarize([r[name] for r in results]) for name in results[0]}
            for workload, results in runs[s].items()
        }
        for s in SETS
    ]


def judge(sets, bounds):
    verdicts = {}
    for key in sets[0]:
        for name in sets[0][key]:
            bound = bounds.get(name)
            spreads = [s[key][name]["spread"] for s in sets]
            first, last = sets[0][key][name]["median"], sets[-1][key][name]["median"]
            shift = (last - first) / first
            verdicts[f"{key}/{name}"] = {
                "bound": bound,
                "max_spread": max(spreads),
                "median_shift": shift,
            }
            if bound is None:
                verdicts[f"{key}/{name}"]["within_bounds"] = None
                continue
            # The benchmark contract bounds every spread but setup_s's.
            spread_ok = name == "setup_s" or max(spreads) <= bound
            verdicts[f"{key}/{name}"].update(
                spread_within_third_of_bound=max(spreads) <= bound / 3,
                within_bounds=spread_ok and abs(shift) <= bound,
            )
    return verdicts


def _host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"machine": platform.machine(), "processor": model, "cores": os.cpu_count()}


if __name__ == "__main__":
    main()
