#!/usr/bin/env python3
"""Checks on the benchmark itself: pinned outputs, oracle, failure accounting.

Run from the root of a checkout (takes about a minute on 2 CPUs):

    python3 perfbench/selftest.py [-v]

It scans the three reference workloads once through the CLI, then checks
that the pinned shard digests and report texts reproduce, that a seeded
sample of records (always including D = p and p | D) agrees with the
exact-rational route, that the grid and million index counts equal the
values the acceptance suite cross-validates, that a corrupted shard or
report counts as a failed invocation, and that BENCHMARK.json names the
metrics run.py and tracer.py emit.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

import oracle
import run
from tracer import Tracer
from workloads import WORKLOADS, report_problems, shard_problems

ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
SEED = 0
SAMPLES = 12
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
results: dict[str, tuple[run.Invocation, run.Invocation]] = {}


def setUpModule():
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True)
    for name, workload in WORKLOADS.items():
        out = WORK / name
        tally = run.Tally()
        scanned = run.scan(workload, out, ENV, WORK, tally)
        reported = run.report(workload, out, ENV, WORK, tally)
        results[name] = (scanned, reported)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        WORK.parent.rmdir()


class PinnedOutputs(unittest.TestCase):
    def test_outputs_reproduce(self):
        for name, workload in WORKLOADS.items():
            scanned, reported = results[name]
            self.assertEqual(scanned.returncode, 0, scanned.stderr)
            self.assertEqual(reported.returncode, 0, reported.stderr)
            self.assertEqual(shard_problems(workload, WORK / name), [])
            self.assertEqual(report_problems(workload, reported.stdout), [])

    def test_index_counts_match_the_acceptance_suite(self):
        for name, workload in WORKLOADS.items():
            if workload.index_counts is None:
                continue
            counts = collections.Counter(row[3] for row in oracle.read_rows(WORK / name))
            got = tuple(counts[r] for r in range(max(counts) + 1))
            self.assertEqual(got, workload.index_counts, name)

    def test_sample_agrees_with_exact_route(self):
        for name, workload in WORKLOADS.items():
            chosen = oracle.sample(oracle.read_rows(WORK / name), workload, SEED, SAMPLES)
            self.assertTrue(any(d == p for d, p, *_ in chosen), name)
            self.assertTrue(any(d % p == 0 for d, p, *_ in chosen), name)
            self.assertEqual(oracle.check(chosen), [], name)

    def test_oracle_rejects_a_wrong_record(self):
        d, p, delta, index, hits = oracle.exact_row(24, 3)
        self.assertEqual(oracle.check([(d, p, delta, index, hits)]), [])
        self.assertNotEqual(oracle.check([(d, p, delta, index + 1, hits + ";4:1")]), [])


class FailureAccounting(unittest.TestCase):
    def test_corrupted_shard_fails_the_invocation(self):
        workload = WORKLOADS["fixed-disc"]
        corrupt = WORK / "corrupt-shard"
        shutil.copytree(WORK / "fixed-disc", corrupt)
        shard = sorted(corrupt.glob("*.csv"))[0]
        data = bytearray(shard.read_bytes())
        data[-2] ^= 1
        shard.write_bytes(bytes(data))

        tally = run.Tally()
        scanned, _ = results["fixed-disc"]
        tally.record(scanned, shard_problems(workload, corrupt))
        run.report(workload, corrupt, ENV, WORK, tally)  # the manifest digest no longer matches
        self.assertEqual((tally.attempted, tally.failed), (2, 2), tally.problems)

    def test_changed_report_fails_the_invocation(self):
        workload = WORKLOADS["fixed-disc"]
        _, reported = results["fixed-disc"]
        changed = run.Invocation(**{**vars(reported), "stdout": reported.stdout.replace("237", "238")})
        tally = run.Tally()
        tally.record(reported, report_problems(workload, reported.stdout))
        tally.record(changed, report_problems(workload, changed.stdout))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_nonzero_exit_fails_the_invocation(self):
        tally = run.Tally()
        inv = run.quadzeta(["report", "--input", str(WORK / "missing"), "--table", "1"], ENV, WORK)
        tally.record(inv, [])
        self.assertEqual((tally.attempted, tally.failed), (1, 1))


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # patches the package in this process; the other tests run it in subprocesses
        cls.tracer = Tracer()
        cls.tracer.install()

    def test_benchmark_json_lists_what_the_harness_emits(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual(self.tracer.absent, [])
        names = set(self.tracer.metrics()) | {"cli.serial_s", "cli.parallel_speedup",
                                              "trace.overhead"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, names)

    def test_tracer_rebinds_every_import_site(self):
        import quadzeta

        importers = {
            "numtheory.character_values": ("irregularity", "bernoulli"),
            "numtheory.enumerate_fundamental_discriminants": ("irregularity", "lvalues"),
            "numtheory.divisor_sigma_sieve": ("irregularity", "lvalues"),
            "bernoulli.bernoulli_residues_mod": ("irregularity",),
            "lvalues.siegel_divisor_sums_mod": ("irregularity",),
            "lvalues.validate_siegel_gate": ("irregularity",),
        }
        for name, sites in importers.items():
            home, fn_name = name.split(".")
            wrapper = getattr(getattr(quadzeta, home), fn_name)
            self.assertIsNot(wrapper, self.tracer.originals[name])
            for site in sites:
                self.assertIs(getattr(getattr(quadzeta, site), fn_name), wrapper, f"{site}.{fn_name}")


if __name__ == "__main__":
    unittest.main()
