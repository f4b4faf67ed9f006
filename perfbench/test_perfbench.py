#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the repository root.  Builds the benchmark (release profile, into
.bench_build) and checks that inputs depend only on the seed, that the
measured input shares match the generator's targets, and that the metric
names a run prints are exactly those BENCHMARK.json lists.  Takes about two
minutes.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
WORK = os.path.join(BUILD, "perfbench-test")
WORKLOADS = ["study", "replay", "serve"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def setUpModule():
    subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--build-dir",
         BUILD, "./perfbench/perfbench.exe", "./bin/cacti_serve.exe"],
        cwd=ROOT, check=True, env=dict(os.environ, DUNE_CACHE="disabled"))


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def dump(workload, seed):
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--work", WORK, "--dump-inputs", "1"],
        cwd=ROOT, check=True, capture_output=True)
    return out.stdout


_runs = {}


def run(workload, trace, seed=5):
    """One short run; returns (result line, run record)."""
    key = (workload, trace)
    if key not in _runs:
        out = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "3",
             "--trace", str(trace), "--work", WORK,
             "--serve-bin", os.path.join(BUILD, "default", "bin", "cacti_serve.exe")],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=170)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(os.path.join(WORK, f"record-{workload}-{seed}-{trace}.json")) as f:
            _runs[key] = (result, json.load(f))
    return _runs[key]


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            a, b = dump(w, 7), dump(w, 7)
            self.assertTrue(len(a) > 0, w)
            self.assertEqual(hashlib.md5(a).hexdigest(), hashlib.md5(b).hexdigest(), w)

    def test_other_seed_other_inputs(self):
        for w in WORKLOADS:
            self.assertNotEqual(dump(w, 7), dump(w, 8), w)

    def test_generated_serve_tiers_match_targets(self):
        lines = dump("serve", 7).decode().splitlines()
        count = {t: sum(1 for l in lines if l.startswith(t + " "))
                 for t in ("warm", "near", "cold", "repeat")}
        self.assertEqual(count["warm"], 128)
        new = count["near"] + count["cold"]
        _, rec = run("serve", 0)
        self.assertGreaterEqual(new, 2 * rec["new_specs_per_s_target"])
        self.assertAlmostEqual(count["near"] / new, 0.8, delta=0.15)
        self.assertGreater(count["repeat"], 0)

    def test_generated_replay_classes_are_even(self):
        lines = dump("replay", 7).decode().splitlines()
        for c in ("l1", "l2", "stream", "pingpong"):
            self.assertEqual(sum(1 for l in lines if l.startswith(c + " ")),
                             len(lines) // 4, c)


class Runs(unittest.TestCase):
    def test_measured_serve_tier_shares(self):
        _, rec = run("serve", 0)
        self.assertAlmostEqual(rec["new_specs_per_s"], rec["new_specs_per_s_target"],
                               delta=0.15 * rec["new_specs_per_s_target"])
        self.assertAlmostEqual(rec["near_share_of_new"], rec["near_share_target"],
                               delta=0.25)
        self.assertGreater(rec["tier_shares"]["warm"], 0.9)

    def test_measured_replay_class_shares(self):
        _, rec = run("replay", 0)
        for c, x in rec["class_shares"].items():
            self.assertAlmostEqual(x, 0.25, places=9, msg=c)

    def test_metric_names_are_well_formed(self):
        b = bench_json()
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
        for w in WORKLOADS:
            for trace in (0, 1):
                result, _ = run(w, trace)
                for name in result["metrics"]:
                    self.assertRegex(name, NAME)

    def test_run_prints_exactly_the_listed_metrics(self):
        b = bench_json()
        lists = {0: b["end_to_end"], 1: b["per_layer"]}
        for w in WORKLOADS:
            for trace in (0, 1):
                result, _ = run(w, trace)
                want = {m["name"]: m["unit"] for m in lists[trace]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, f"{w} trace={trace}")

    def test_runs_are_correct(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                result, rec = run(w, trace)
                self.assertTrue(result["correct"], f"{w} {trace}: {rec['checks']}")
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_record_has_host_and_counts(self):
        _, rec = run("study", 0)
        for k in ("nproc", "cpu_model", "ocaml_version", "build_profile"):
            self.assertIn(k, rec["host"])
        self.assertEqual(rec["seed"], 5)
        self.assertGreater(rec["sample_counts"]["ops"], 0)

    def test_study_record_has_validation_errors(self):
        _, rec = run("study", 0)
        self.assertEqual(set(rec["validation_error"]),
                         {"val.xeon_l3_65nm", "val.sparc_l2_90nm", "val.ddr3_1g_78nm"})
        self.assertEqual(len(rec["solution_digests"]), 11)


if __name__ == "__main__":
    sys.exit(unittest.main())
