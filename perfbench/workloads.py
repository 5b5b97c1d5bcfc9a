"""The three reference scans the benchmark runs, and the checks on their outputs.

Each workload is one `quadzeta scan` into an empty directory followed by the
`quadzeta report` that renders its table.  The outputs are pinned: the sha256
of every shard (`pinned/<name>.sha256`, in `sha256sum` format) and the exact
report text (`pinned/<name>.report.txt`).  This module uses only the standard
library, so the harness never imports the package it measures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned"

# nproc on the reference machine; every timed scan runs at this worker count.
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scan_args: tuple[str, ...]
    table: str
    # Records the exact-rational oracle may sample, as (D bound, p bound):
    # exact twisted Bernoulli numbers grow quadratically in 2m and linearly
    # in D, so spot checks stay below these.
    oracle_bounds: tuple[int, int]
    # Index counts (records with index 0, 1, 2, ...) cross-validated by the
    # acceptance suite; None where the suite pins no such tuple.
    index_counts: tuple[int, ...] | None = None

    def scan_argv(self, out: Path, workers: int) -> list[str]:
        return ["scan", *self.scan_args, "--out", str(out), "--workers", str(workers)]

    def report_argv(self, out: Path) -> list[str]:
        return ["report", "--input", str(out), "--table", self.table]

    def pinned_digests(self) -> dict[str, str]:
        digests = {}
        for line in (PINNED / f"{self.name}.sha256").read_text().splitlines():
            digest, name = line.split()
            digests[name] = digest
        return digests

    def pinned_report(self) -> str:
        return (PINNED / f"{self.name}.report.txt").read_text()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixed-disc",
            scan_args=("--kind", "fixed-disc", "--disc", "5", "--pmax", "2500"),
            table="1",
            oracle_bounds=(6, 400),
        ),
        Workload(
            name="grid",
            scan_args=("--kind", "grid", "--dmax", "5000", "--pmax", "100"),
            table="2",
            oracle_bounds=(5000, 100),
            index_counts=(21862, 11597, 2529, 347, 41, 7, 1),
        ),
        Workload(
            name="million",
            scan_args=("--kind", "million", "--dmax", "1000000", "--primes", "3,5"),
            table="3",
            oracle_bounds=(20000, 6),
            index_counts=(338966, 252832, 16116),
        ),
    )
}


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def shard_problems(workload: Workload, out: Path) -> list[str]:
    """Differences between the shards in out and the pinned ones (empty if none)."""
    pinned = workload.pinned_digests()
    problems = []
    for name, digest in pinned.items():
        path = out / name
        if not path.is_file():
            problems.append(f"missing shard {name}")
        elif file_sha256(path) != digest:
            problems.append(f"digest mismatch for shard {name}")
    for path in sorted(out.glob("*.csv")):
        if path.name not in pinned:
            problems.append(f"unexpected shard {path.name}")
    return problems


def report_problems(workload: Workload, text: str) -> list[str]:
    return [] if text == workload.pinned_report() else [f"{workload.name} report text differs"]
