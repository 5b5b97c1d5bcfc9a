#!/usr/bin/env python3
"""Exact-rational spot check of a reference scan's shards.

    python3 perfbench/oracle.py WORKLOAD SCAN_DIR --seed N

Draws SAMPLES records at random (seeded) from the shards, plus one record with
D = p and one with p | D, and recomputes each from l_chi_exact and
p_adic_valuation alone, bypassing every modular and divisor-sum kernel.  The
sample is drawn from the records the workload's oracle_bounds admit, since
exact twisted Bernoulli numbers get expensive for large 2m and D.  Prints one
JSON object, {"checked": n, "problems": [...]}, as the last line of stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

from workloads import WORKLOADS, Workload

Row = tuple[int, int, int, int, str]  # D, p, delta, index, hits
SAMPLES = 6


def read_rows(out: Path) -> list[Row]:
    rows = []
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows.extend((int(r[0]), int(r[1]), int(r[2]), int(r[3]), r[4]) for r in reader)
    return rows


def sample(rows: list[Row], workload: Workload, seed: int, k: int) -> list[Row]:
    d_bound, p_bound = workload.oracle_bounds
    admitted = [r for r in rows if r[0] < d_bound and r[1] < p_bound]
    rng = random.Random(seed)
    chosen = set(rng.sample(admitted, min(k, len(admitted))))
    chosen.add(rng.choice([r for r in admitted if r[0] == r[1]]))
    chosen.add(rng.choice([r for r in admitted if r[0] % r[1] == 0]))
    return sorted(chosen)


def exact_row(d: int, p: int) -> Row:
    """The shard row for (D, p), from exact L-values.

    Tested values are L(1-2m, chi_D) for even 2m <= delta, where delta is
    p - 1, or (p - 1)/2 when D = p; in that case the top value is
    multiplied by p first.
    """
    from quadzeta.lvalues import l_chi_exact
    from quadzeta.numtheory import p_adic_valuation

    delta = (p - 1) // 2 if d == p else p - 1
    hits = []
    for two_m in range(2, delta + 1, 2):
        v = p_adic_valuation(l_chi_exact(d, two_m // 2), p)
        if d == p and two_m == delta:
            v += 1
        if v >= 1:
            hits.append(f"{two_m}:{v}")
    return d, p, delta, len(hits), ";".join(hits)


def check(rows: list[Row]) -> list[str]:
    problems = []
    for row in rows:
        want = exact_row(row[0], row[1])
        if row != want:
            problems.append(f"record {row} differs from the exact {want}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=list(WORKLOADS))
    parser.add_argument("scan_dir", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    chosen = sample(read_rows(args.scan_dir), WORKLOADS[args.workload], args.seed, SAMPLES)
    print(json.dumps({"checked": len(chosen), "problems": check(chosen)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
