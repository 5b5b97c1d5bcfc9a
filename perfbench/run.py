#!/usr/bin/env python3
"""Time-to-table benchmark over the three reference scans.

Run from the root of a checkout (standard library only):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

A workload is one `quadzeta scan ... --workers 2` into an empty directory
followed by its `quadzeta report`, each in a fresh `python -m quadzeta`
process.  The loop is closed: one invocation at a time from this process.

--trace 0 runs the scan once, then alternates fresh `python -m quadzeta
--help` launches (setup_s) with reports until --seconds have passed since
the run began: at least SETUP_LAUNCHES launches and REPORTS reports, and
a further report only while one still fits.  It reports medians of wall time,
CPU time and peak RSS per invocation.  CPU and RSS
come from os.wait4 on each invocation, so they include the pool workers the
CLI reaped.  Every shard digest and report text is compared with the pinned
copy in perfbench/pinned; a mismatch or a non-zero exit fails the
invocation.  A seeded sample of records is then recomputed exactly
(oracle.py).

--trace 1 ignores --seconds and gives the per-layer numbers instead: an
untraced 2-worker CLI scan, an untraced in-process scan at one worker
(cli.serial_s), and a traced in-process scan and report at one worker
(tracer.py), each in a fresh interpreter so every cache starts cold.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKERS, WORKLOADS, Workload, report_problems, shard_problems

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 11  # at least, per run
REPORTS = 2  # at least, per run
END_TO_END = {"setup_s": "s", "scan_s": "s", "report_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MACHINE_LIMITS = "2 shared CPUs; no CPU pinning, no cache dropping, no system-wide tracing"


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Invocations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, inv: Invocation, problems: list[str]) -> None:
        if inv.returncode != 0:
            tail = inv.stderr.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {inv.returncode}: {tail[0]}", *problems]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_python(args: list[str], env: dict, work: Path) -> Invocation:
    """Run `python3 ARGS` to completion and take its rusage from wait4."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # Linux reports kilobytes
        returncode=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def quadzeta(argv: list[str], env: dict, work: Path) -> Invocation:
    return run_python(["-m", "quadzeta", *argv], env, work)


def scan(workload: Workload, out: Path, env: dict, work: Path, tally: Tally) -> Invocation:
    shutil.rmtree(out, ignore_errors=True)
    inv = quadzeta(workload.scan_argv(out, WORKERS), env, work)
    tally.record(inv, shard_problems(workload, out))
    return inv


def report(workload: Workload, out: Path, env: dict, work: Path, tally: Tally) -> Invocation:
    inv = quadzeta(workload.report_argv(out), env, work)
    tally.record(inv, report_problems(workload, inv.stdout))
    return inv


def last_json_line(inv: Invocation) -> dict:
    lines = inv.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {}


def spot_check(workload: Workload, out: Path, seed: int, env: dict, work: Path) -> list[str]:
    """Recompute a seeded sample of records exactly; return the mismatches."""
    inv = run_python(
        [str(HERE / "oracle.py"), workload.name, str(out), "--seed", str(seed)], env, work
    )
    result = last_json_line(inv)
    if inv.returncode != 0 or "problems" not in result:
        return [f"oracle failed with exit code {inv.returncode}"]
    print(f"  oracle: {result['checked']} sampled records recomputed exactly, "
          f"{len(result['problems'])} differ")
    return result["problems"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, seed: int, seconds: int, env: dict, work: Path, tally: Tally):
    """End-to-end metrics: one scan, then setup launches and reports until seconds is used up."""
    deadline = time.perf_counter() + seconds
    help_argv = ["--help"]
    tally.record(quadzeta(help_argv, env, work), [])  # warm-up: byte-compile, page cache
    out = work / "scan"
    s = scan(workload, out, env, work, tally)
    setups: list[float] = []
    reps: list[Invocation] = []

    def left() -> float:
        return deadline - time.perf_counter()

    # Setup launches and reports alternate, so that both are sampled over the
    # same stretch of time.  Past the minimum counts, a report runs only
    # while one still fits in the time left.
    while (len(setups) < SETUP_LAUNCHES or len(reps) < REPORTS
           or setups[-1] + reps[-1].wall_s <= left()):
        inv = quadzeta(help_argv, env, work)
        tally.record(inv, [])
        setups.append(inv.wall_s)
        if len(reps) < REPORTS or reps[-1].wall_s <= left():
            reps.append(report(workload, out, env, work, tally))
    reports = [r.wall_s for r in reps]
    cpus = [s.cpu_s + statistics.median(r.cpu_s for r in reps)]
    rsss = [max(s.rss_mb, *(r.rss_mb for r in reps))]
    problems = spot_check(workload, out, seed, env, work)

    samples = {"setup_s": setups, "scan_s": [s.wall_s], "report_s": reports, "cpu_s": cpus,
               "peak_rss_mb": rsss}
    for name, values in samples.items():
        print(f"  {name:<12} {statistics.median(values):10.4f} {END_TO_END[name]:<5}"
              f" median of {len(values)}, range {min(values):.4f}-{max(values):.4f}")
    print(f"  {'error_rate':<12} {tally.failed / tally.attempted:10.4f} ratio"
          f" {tally.failed} failed of {tally.attempted} invocations")
    metrics = {name: metric(statistics.median(values), END_TO_END[name])
               for name, values in samples.items()}
    return metrics, problems


def measure_layers(workload: Workload, seed: int, env: dict, work: Path, tally: Tally):
    """Per-layer metrics from a traced run, with the untraced runs that frame it."""
    out = work / "scan"
    parallel = scan(workload, out, env, work, tally)
    problems = spot_check(workload, out, seed, env, work)

    def tracer(mode: str) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        inv = run_python([str(HERE / "tracer.py"), mode, workload.name, str(out)], env, work)
        result = last_json_line(inv)
        tally.record(inv, result.get("problems", ["tracer printed no result"]))
        return result

    serial = tracer("serial")
    traced = tracer("traced")
    if "scan_s" not in serial or "metrics" not in traced:
        return {}, problems
    metrics = dict(traced["metrics"])
    metrics["cli.serial_s"] = metric(serial["scan_s"], "s")
    metrics["cli.parallel_speedup"] = metric(serial["scan_s"] / parallel.wall_s, "x")
    metrics["trace.overhead"] = metric(traced["scan_s"] / serial["scan_s"], "x")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for name in traced.get("absent", []):
        print(f"  {name:<52} {'absent':>14}")
    return metrics, problems


def environment(env: dict, workers: int) -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print(sys.version.split()[0], numpy.__version__)"],
        capture_output=True, text=True, env=env,
    ).stdout.split()
    try:
        # the ceiling keeps git from reporting a repository that merely encloses the checkout
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**env, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)},
        ).stdout.strip() or "unavailable (not a git checkout)"
    except OSError:
        rev = "unavailable (no git)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": versions[0] if versions else "unknown",
        "numpy": versions[1] if len(versions) > 1 else "unknown",
        "git_revision": rev,
        "machine_limits": MACHINE_LIMITS,
        "loop": "closed, one invocation at a time",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="selects the records the exact oracle recomputes")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "quadzeta" / "__main__.py").is_file():
        print(f"error: no quadzeta sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    work = root / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    problems: list[str] = []
    metrics: dict = {}
    try:
        for name in names:
            print(f"workload {name} (seed {args.seed}, trace {args.trace})")
            tally = Tally()
            if args.trace:
                got, bad = measure_layers(WORKLOADS[name], args.seed, env, work, tally)
            else:
                got, bad = measure(WORKLOADS[name], args.seed, args.seconds, env, work, tally)
            attempted += tally.attempted
            failed += tally.failed
            problems += tally.problems + bad
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in got.items()})
        print("env " + json.dumps(environment(env, 1 if args.trace else WORKERS)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    for line in problems[:20]:
        print(f"problem: {line}")
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
