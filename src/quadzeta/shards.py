"""Persistent scan results: CSV shards plus a plain-text manifest.

Index-record schema (one row per (D, p), sorted by that key):

    D,p,delta,index,hits

where hits is a semicolon-joined list of 2m:valuation pairs, empty for
index 0.  Irregular pairs use the schema p,two_m,D,valuation.  Shards are
written atomically (temp file then rename) so an interrupted scan never
leaves a truncated shard behind; the manifest records one shard per line
with its digest and completion flag.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .irregularity import IndexRecord, IrregularPair

INDEX_HEADER = ["D", "p", "delta", "index", "hits"]
PAIR_HEADER = ["p", "two_m", "D", "valuation"]
MANIFEST_NAME = "manifest.txt"


class IncompleteScanError(RuntimeError):
    pass


def format_hits(hits: Sequence[tuple[int, int]]) -> str:
    return ";".join(f"{two_m}:{v}" for two_m, v in hits)


def parse_hits(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        two_m, _, v = part.partition(":")
        out.append((int(two_m), int(v)))
    return tuple(out)


def _atomic_write(path: Path, write_body) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        write_body(fh)
    os.replace(tmp, path)


def write_index_shard(path: Path, records: Iterable[IndexRecord]) -> None:
    def body(fh):
        writer = csv.writer(fh)
        writer.writerow(INDEX_HEADER)
        for rec in records:
            writer.writerow(
                [rec.discriminant, rec.prime, rec.delta, rec.index, format_hits(rec.hits)]
            )

    _atomic_write(path, body)


def read_index_shard(path: Path) -> list[IndexRecord]:
    """Parse an index shard, rejecting rows of the wrong arity, rows whose
    index column disagrees with the number of hits, and rows that do not
    strictly increase by (D, p)."""
    records = []
    previous = (0, 0)  # below every valid (D, p)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INDEX_HEADER:
            raise ValueError(f"{path} is not an index shard (header {header})")
        for row in reader:
            try:
                d, p, delta, index, hits_text = row
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected 5 fields, got {len(row)}"
                ) from None
            hits = parse_hits(hits_text)
            if int(index) != len(hits):
                raise ValueError(f"{path}:{reader.line_num}: index {index} but {len(hits)} hits")
            key = (int(d), int(p))
            if key <= previous:
                raise ValueError(f"{path}:{reader.line_num}: (D, p) {key} does not follow {previous}")
            previous = key
            records.append(IndexRecord(key[0], key[1], int(delta), "chi", hits))
    return records


def write_pairs_csv(path: Path, pairs: Iterable[IrregularPair]) -> None:
    def body(fh):
        writer = csv.writer(fh)
        writer.writerow(PAIR_HEADER)
        for pair in pairs:
            writer.writerow([pair.prime, pair.two_m, pair.discriminant, pair.valuation])

    _atomic_write(path, body)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class ShardEntry:
    name: str
    lo: int
    hi: int
    digest: str = ""
    complete: bool = False


@dataclass
class ScanManifest:
    """Scan parameters plus the shard ledger; completion means every shard done."""

    kind: str
    params: dict[str, str] = field(default_factory=dict)
    shards: list[ShardEntry] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return bool(self.shards) and all(s.complete for s in self.shards)

    def validate_partition(self) -> None:
        """The shard spans follow one another with no gap and no overlap, from
        the start of the scan range to its end: p in [3, pmax) for a
        fixed-disc scan, D in [max(dmin, 2), dmax) otherwise."""
        fixed = self.kind == "fixed-disc"
        end = "pmax" if fixed else "dmax"
        if end not in self.params:
            raise ValueError(f"manifest params give no {end}, so the scan range has no end")
        lo = 3 if fixed else max(int(self.params.get("dmin", 2)), 2)
        hi = int(self.params[end])
        spans = sorted((s.lo, s.hi) for s in self.shards)
        edges = [lo, *(x for span in spans for x in span), hi]  # each hi meets the next lo
        if edges[0::2] != edges[1::2]:
            raise ValueError(f"shards do not partition the scan range [{lo}, {hi})")


def write_manifest(directory: Path, manifest: ScanManifest) -> None:
    def body(fh):
        fh.write(f"kind={manifest.kind}\n")
        for key in sorted(manifest.params):
            fh.write(f"param.{key}={manifest.params[key]}\n")
        fh.write(f"shards={len(manifest.shards)}\n")
        for i, s in enumerate(manifest.shards):
            fh.write(
                f"shard.{i:04d}={s.name} lo={s.lo} hi={s.hi} "
                f"sha256={s.digest or '-'} complete={int(s.complete)}\n"
            )

    _atomic_write(directory / MANIFEST_NAME, body)


def read_manifest(directory: Path) -> ScanManifest:
    path = directory / MANIFEST_NAME
    kind = ""
    params: dict[str, str] = {}
    shards: list[ShardEntry] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key == "kind":
                kind = value
            elif key.startswith("param."):
                params[key[len("param.") :]] = value
            elif key.startswith("shard."):
                name, *attrs = value.split()
                entry = ShardEntry(name=name, lo=0, hi=0)
                for attr in attrs:
                    k, _, v = attr.partition("=")
                    if k == "lo":
                        entry.lo = int(v)
                    elif k == "hi":
                        entry.hi = int(v)
                    elif k == "sha256":
                        entry.digest = "" if v == "-" else v
                    elif k == "complete":
                        entry.complete = bool(int(v))
                shards.append(entry)
    if not kind:
        raise ValueError(f"{path} has no scan kind")
    return ScanManifest(kind=kind, params=params, shards=shards)


def load_records(directory: Path, allow_partial: bool = False) -> list[IndexRecord]:
    """Read every completed shard in range order; reject incomplete scans.

    The manifest's shard spans must partition the scan range
    (ScanManifest.validate_partition).  A completed shard must carry a
    digest, and its file must match it.  Each record's block key (p for a
    fixed-disc scan, D otherwise) must lie in its shard's [lo, hi).

    Raises IncompleteScanError unless allow_partial is set; report commands
    map that onto the dedicated exit code.
    """
    manifest = read_manifest(directory)
    manifest.validate_partition()
    if not manifest.complete and not allow_partial:
        raise IncompleteScanError(f"scan in {directory} is incomplete")
    block_key = attrgetter("prime" if manifest.kind == "fixed-disc" else "discriminant")
    records: list[IndexRecord] = []
    for entry in sorted(manifest.shards, key=lambda s: s.lo):
        if not entry.complete:
            continue
        path = directory / entry.name
        if not entry.digest:
            raise ValueError(f"shard {entry.name} is marked complete but has no digest")
        if file_digest(path) != entry.digest:
            raise ValueError(f"digest mismatch for shard {entry.name}")
        shard = read_index_shard(path)
        keys = list(map(block_key, shard))
        if keys and (min(keys) < entry.lo or max(keys) >= entry.hi):
            raise ValueError(f"shard {entry.name} holds records outside [{entry.lo}, {entry.hi})")
        records.extend(shard)
    return records
