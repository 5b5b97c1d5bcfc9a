#!/usr/bin/env python3
"""One reference scan in a fresh interpreter, at one worker, in-process.

    python3 perfbench/tracer.py serial WORKLOAD OUT_DIR
    python3 perfbench/tracer.py traced WORKLOAD OUT_DIR

`quadzeta` must be importable (run.py puts the checkout's src/ on
PYTHONPATH).  serial runs the scan untraced and prints its wall time.
traced wraps the public functions in LAYERS, rebinding each one in every
quadzeta module that holds a reference to it, then runs the scan and the
report.  For every wrapped function it records calls, busy_s (inclusive
time) and self_s (busy_s minus the time in wrapped callees).  A function
that no longer exists is listed as absent instead of failing the run.

Each mode prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, report_problems, shard_problems

# The layer boundaries: module -> public functions timed at their call sites.
LAYERS = {
    "numtheory": ("character_values", "enumerate_fundamental_discriminants", "divisor_sigma_sieve"),
    "bernoulli": ("bernoulli_residues_mod",),
    "lvalues": ("siegel_divisor_sums_mod", "validate_siegel_gate"),
    "irregularity": ("compute_fixed_disc_block", "compute_grid_block", "compute_table3_block"),
    "shards": ("write_index_shard", "file_digest", "write_manifest", "read_index_shard"),
    "stats": ("expected_counts_exact", "build_distribution", "aggregate_across_discriminants"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, dict[str, float]] = {}
        self.counts = {"irregularity.records": 0, "irregularity.hits": 0,
                       "irregularity.tested_values": 0}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # time spent in wrapped callees, per open span
        self.originals: dict[str, object] = {}

    def wrap(self, name: str, fn, after=None, counters=()):
        span = self.spans[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        span.update(dict.fromkeys(counters, 0))
        depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            span["calls"] += 1
            children = [0.0]
            self._stack.append(children)
            depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                if depth == 0:
                    span["busy_s"] += elapsed
                span["self_s"] += elapsed - children[0]
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def install(self) -> None:
        import quadzeta.cli  # noqa: F401  (loads every module that may hold a reference)
        import quadzeta.shards  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n == "quadzeta" or n.startswith("quadzeta.")]
        for mod_name, funcs in LAYERS.items():
            module = sys.modules.get(f"quadzeta.{mod_name}")
            for fn_name in funcs:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is None:
                    self.absent.append(name)
                    continue
                self.originals[name] = original
                wrapper = self.wrap(name, original, *self._after_hook(fn_name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _after_hook(self, fn_name: str) -> tuple:
        """(hook run after each call, extra counters in the span) for one function."""
        if fn_name in LAYERS["irregularity"]:  # the block kernels, which return records
            return self._count_records, ()
        if fn_name == "write_index_shard":
            return _count_written, ("rows", "bytes")
        if fn_name == "read_index_shard":
            return _count_read, ("rows",)
        return None, ()

    def _count_records(self, span, args, records) -> None:
        self.counts["irregularity.records"] += len(records)
        self.counts["irregularity.hits"] += sum(len(r.hits) for r in records)
        self.counts["irregularity.tested_values"] += sum(r.delta // 2 for r in records)

    def metrics(self) -> dict:
        units = {"calls": "count", "busy_s": "s", "self_s": "s", "rows": "count", "bytes": "B"}
        out = {}
        for name, span in self.spans.items():
            for key, value in span.items():
                out[f"{name}.{key}"] = {"value": value, "unit": units[key]}
        cached = self.originals.get("bernoulli.bernoulli_residues_mod")
        if cached is not None and hasattr(cached, "cache_info"):
            # the wrapper hides the lru_cache, so misses come from the original
            out["bernoulli.bernoulli_residues_mod.misses"] = {
                "value": cached.cache_info().misses, "unit": "count"}
        for name, value in self.counts.items():
            out[name] = {"value": value, "unit": "count"}
        return out


def _count_written(span, args, result) -> None:
    data = Path(args[0]).read_bytes()
    span["rows"] += data.count(b"\n") - 1  # minus the header
    span["bytes"] += len(data)


def _count_read(span, args, records) -> None:
    span["rows"] += len(records)


def run_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


def main() -> int:
    mode, name, out = sys.argv[1], sys.argv[2], Path(sys.argv[3])
    workload = WORKLOADS[name]
    tracer = Tracer()
    if mode == "traced":
        tracer.install()
    from quadzeta import cli

    code, _, scan_s = run_cli(cli, workload.scan_argv(out, 1))
    problems = [f"scan exit code {code}"] if code else []
    problems += shard_problems(workload, out)
    result: dict = {"scan_s": scan_s}
    if mode == "traced":
        code, text, report_s = run_cli(cli, workload.report_argv(out))
        problems += [f"report exit code {code}"] if code else []
        problems += report_problems(workload, text)
        result.update(report_s=report_s, metrics=tracer.metrics(), absent=tracer.absent)
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
