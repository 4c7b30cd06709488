#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark (like run.py, into .bench_build) and runs each listed
workload with one world per pass and no time budget. Checks that every
metric BENCHMARK.json names is reported with its unit, that the fidelity
gate and the output checks pass, that each world reproduces rasc_cli on the
same flags and seed, and that failures end with a message and a nonzero
exit code instead of a crash. Takes about two minutes.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
BINARY = os.path.join(run.BUILD, "rasc_perfbench")
CLI = os.path.join(run.BUILD, "rasc_cli")


def bench(*args):
    done = subprocess.run([BINARY, "--worlds", "1", "--seconds", "0",
                           *args], capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done, result


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(["rasc_perfbench", "rasc_cli"]):
            raise RuntimeError("build failed")

    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual([m["name"] for m in metrics],
                         list(result["metrics"]))
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(m["unit"], got["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_listed_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                done, result = bench("--workload", w["name"], "--seed", "42",
                                     "--trace", "0")
                self.assertEqual(done.returncode, 0, done.stderr)
                self.assertIn("vs exp::run_experiment: identical",
                              done.stdout)
                self.check_result(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertNotEqual(result["metrics"][m["name"]]["value"],
                                        0, m["name"])

                spans = os.path.join(run.BUILD, "test-spans.jsonl")
                done, result = bench("--workload", w["name"], "--seed", "42",
                                     "--trace", "1", "--spans", spans)
                self.assertEqual(done.returncode, 0, done.stderr)
                self.check_result(result, SPEC["per_layer"])
                with open(spans) as f:
                    records = [json.loads(line) for line in f]
                self.assertIn("manifest", records[0])
                self.assertEqual(
                    {r["name"] for r in records[1:]},
                    {"overlay.build", "world", "sim.slice", "coord.submit",
                     "core.compose", "obs.snapshot"})

    def test_worlds_match_rasc_cli(self):
        done, _ = bench("--workload", "all", "--seed", "42", "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        flags = {w["name"]: None for w in SPEC["workloads"]}
        for line in done.stdout.splitlines():
            m = re.match(r"workload (\S+): (.*) \| seeds", line)
            if m:
                flags[m.group(1)] = m.group(2)
        self.assertNotIn(None, flags.values())
        worlds = re.findall(r"^  seed 42: (.*)$", done.stdout, re.M)
        self.assertEqual(len(worlds), len(flags))
        for (name, cli_flags), world in zip(flags.items(), worlds):
            with self.subTest(workload=name):
                cli = subprocess.run([CLI, *cli_flags.split(), "--seed", "42"],
                                     capture_output=True, text=True,
                                     timeout=600)
                self.assertEqual(cli.returncode, 0, cli.stderr)
                self.assertEqual(cli.stdout.splitlines()[0], "rep 0: " + world)

    def test_aborted_run_is_reported(self):
        # 384 nodes: DHT service registration fails for this seed.
        done, result = bench("--workload", "scale384", "--seed", "2")
        self.assertEqual(done.returncode, 1)
        self.assertIn("World: service registration failed", done.stderr)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["attempted"], 60)

    def test_bad_arguments_exit_without_result(self):
        for args in (["--workload", "nope"], ["--trace", "2"],
                     ["--no-such-flag"]):
            with self.subTest(args=args):
                done, result = bench(*args)
                self.assertEqual(done.returncode, 2)
                self.assertIsNone(result)

    def test_fails_without_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ cannot build.
        bare = os.path.join(run.BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper32"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
