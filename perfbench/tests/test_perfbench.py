"""Self-tests of the benchmark, on the tiny --smoke variant of each workload.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a checkout; the first test builds the CLI and the
harness (seconds when the build directory is warm).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)


def bench(workload, trace, *extra):
    """Runs the smoke variant; returns (stdout lines, result object)."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"run.py failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class BenchmarkContract(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))

    def test_every_metric_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(table))
                    for name, unit in table.items():
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                    if trace == 0:
                        table = run.printed_metrics(workload == "batch_fleet")
                    for name, unit in table.items():
                        self.assertTrue(
                            any(line.startswith(f"{name}: ") and f" {unit}" in line for line in lines),
                            f"{name} not printed with {unit}",
                        )
                    self.assertTrue(any(line.startswith("failed_frac: 0.0 ratio") for line in lines))

    def test_failed_frac_turns_nonzero_on_a_corrupted_expected_value(self):
        expected = run.load_expected(os.path.join(BENCH, "expected.json"))
        cases = {
            "check_counter_wide": lambda e: e["families"]["counter_m"]["signals"]["count"].update(
                covered="4*n+1"
            ),
            "check_pipeline_deep": lambda e: e["families"]["pipeline_d"].update(properties="9"),
            "batch_fleet": lambda e: e["decks"]["counter.smv"]["signals"].update(count=[21, 24]),
        }
        for workload, corrupt in cases.items():
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                broken = copy.deepcopy(expected)
                corrupt(broken)
                path = os.path.join(tmp, "expected.json")
                with open(path, "w") as f:
                    json.dump(broken, f)
                lines, result = bench(workload, 0, "--expected", path)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                frac = next(line for line in lines if line.startswith("failed_frac: "))
                self.assertGreater(float(frac.split()[1]), 0.0)

    def test_replay_span_tree_nests_as_declared(self):
        for workload, required in (
            ("check_pipeline_deep", {"smv.parse", "bdd.sift", "mc.check", "core.analyze"}),
            ("batch_fleet", {"par.plan", "par.run"}),
        ):
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                spans_path = os.path.join(tmp, "spans.jsonl")
                bench(workload, 1, "--spans-out", spans_path)
                self.assertEqual(run.check_span_tree(spans_path), [])
                with open(spans_path) as f:
                    names = {json.loads(line)["name"] for line in f}
                self.assertTrue(required <= names, names)

    def test_report_check_tells_a_full_cover_from_a_tiny_hole(self):
        # pipeline_d100's space is 3 * 2^103 states: one state short of a
        # full cover still prints 100.00, but the CLI then lists the hole.
        expected = run.load_expected(os.path.join(BENCH, "expected.json"))
        deck = "pipeline_d100.smv"
        table = ["[PASS] SPEC AG x"] * 10 + [
            "Circuit  Signal  #Prop  %COV",
            "pipeline_d100.smv  out  10  100.00  479k - 315.63ms  878k - 5.40s",
        ]
        self.assertEqual(run.check_report(table, deck, 0, expected), [])
        hole = table + ["", "uncovered states for `out`:", "  d1=0"]
        self.assertEqual(
            run.check_report(hole, deck, 0, expected),
            ["out: uncovered-state listing printed"],
        )
        short = copy.deepcopy(expected)
        short["families"]["pipeline_d"]["signals"]["out"]["covered"] = "3*2**(n+3)-1"
        self.assertEqual(
            run.check_report(table, deck, 0, short), ["out: uncovered-state listing missing"]
        )

    def test_replay_parity_checks_exact_counts_against_the_expected_file(self):
        expected = run.load_expected(os.path.join(BENCH, "expected.json"))
        replay = {"decks": [{
            "name": "counter_m20.smv",
            "verdicts": "P" * 20,
            "signals": [{"signal": "count", "percent": "95.24", "covered": "80", "space": "84"}],
        }]}
        cli = {"lines": ["[PASS] SPEC AG x"] * 20 + [
            "Circuit  Signal  #Prop  %COV",
            "counter_m20.smv  count  20  95.24  1k - 1ms  1k - 1ms",
        ]}
        inputs = {"args": ["check", "counter_m20.smv", "--coverage"]}
        self.assertEqual(run.replay_parity(replay, cli, inputs, expected), [])
        replay["decks"][0]["signals"][0]["covered"] = "79"
        self.assertEqual(len(run.replay_parity(replay, cli, inputs, expected)), 1)

    def test_span_tree_check_rejects_misnested_spans(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.jsonl")
            with open(path, "w") as f:
                for span in (
                    {"id": 0, "name": "replay", "parent": None, "start_s": 0, "end_s": 2},
                    {"id": 1, "name": "core.analyze", "parent": 0, "start_s": 0, "end_s": 1},
                ):
                    f.write(json.dumps(span) + "\n")
            self.assertEqual(run.check_span_tree(path), ["span core.analyze nests in replay"])


class ExpectedOracle(unittest.TestCase):
    """The expected file agrees with Definition 3 by enumeration
    (covest_core::reference_covered_set) wherever the state space is small
    enough to enumerate: the family formulas on small members and every
    bundled deck entry."""

    def test_expected_file_matches_reference_enumeration(self):
        _, harness = run.build()
        expected = run.load_expected(os.path.join(BENCH, "expected.json"))
        with tempfile.TemporaryDirectory() as tmp:
            # The seeded fleet carries the bundled decks; the smoke check
            # workloads carry counter_m20 and pipeline_d8.
            models = os.path.join(ROOT, "models")
            run.harness_json(harness, ["gen", "batch_fleet", "1", tmp, models], tmp)
            for workload in ("check_counter_wide", "batch_fleet"):
                run.harness_json(harness, ["gen", workload, "1", tmp, models, "--smoke"], tmp)
            decks = ["counter_m20.smv", "pipeline_d4.smv"] + sorted(expected["decks"])
            for deck in decks:
                with self.subTest(deck=deck):
                    ref = run.harness_json(harness, ["reference", deck], tmp)
                    verdicts, signals = run.expected_for(expected, deck)
                    self.assertEqual(ref["verdicts"], verdicts)
                    self.assertEqual(
                        {s["signal"]: (s["covered"], s["space"]) for s in ref["signals"]}, signals
                    )
        # The two reference points the family formulas are quoted with.
        self.assertEqual(run.expected_for(expected, "counter_m20.smv")[1]["count"], (80.0, 84.0))
        covered, space = run.expected_for(expected, "counter_m800.smv")[1]["count"]
        self.assertEqual(f"{100 * covered / space:.2f}", "99.88")


if __name__ == "__main__":
    unittest.main()
