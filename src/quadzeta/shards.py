"""Persistent scan results: CSV shards plus a plain-text manifest.

Index-record schema (one row per (D, p), sorted by that key):

    D,p,delta,index,hits

where hits is a semicolon-joined list of 2m:valuation pairs, empty for
index 0.  Irregular pairs use the schema p,two_m,D,valuation.  Shards are
written atomically (temp file then rename) so an interrupted scan never
leaves a truncated shard behind; the manifest records one shard per line
with its digest and completion flag.  This module owns the scan directory:
write_scan names, writes and resumes the shards of an irregularity.ScanPlan
(and refuses a directory of another scan), and load_records reads them
back.  The writers take IndexColumns only, as the block kernels return
them, and shards are read back as IndexColumns: the reader validates whole
columns at once, and load_records joins a scan's shards into one.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .irregularity import IndexColumns, ScanPlan, scan_range

INDEX_HEADER = ["D", "p", "delta", "index", "hits"]
PAIR_HEADER = ["p", "two_m", "D", "valuation"]
MANIFEST_NAME = "manifest.txt"


class IncompleteScanError(RuntimeError):
    pass


def format_hits(hits: Sequence[tuple[int, int]]) -> str:
    return ";".join(f"{two_m}:{v}" for two_m, v in hits)


def _atomic_write(path: Path, write_body) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        write_body(fh)
    os.replace(tmp, path)


def write_index_shard(path: Path, cols: IndexColumns) -> None:
    """Write the bytes csv.writer would (no field needs quoting, and every
    row ends in CRLF), formatted from the columns as one string; most rows
    have no hits, so the hits field is joined only on those that do."""
    hits = iter([f"{m}:{v}" for m, v in zip(cols.two_m.tolist(), cols.valuation.tolist())])

    def body(fh):
        fh.write(",".join(INDEX_HEADER) + "\r\n")
        fh.write("".join(
            f"{d},{p},{b},{k},{';'.join(islice(hits, k)) if k else ''}\r\n"
            for d, p, b, k in zip(cols.discriminant.tolist(), cols.prime.tolist(),
                                  cols.delta.tolist(), cols.index.tolist())
        ))

    _atomic_write(path, body)


def read_index_shard(path: Path) -> IndexColumns:
    """Parse an index shard into columns.

    Rows end in LF or CRLF, and the last may have no line end.  Rejects
    rows of the wrong arity, rows whose index column disagrees with the
    number of hits, malformed hits, and rows that do not strictly increase
    by (D, p); every message names the file.  The checks run on whole
    columns: per-row counts of commas and semicolons on the byte buffer,
    np.loadtxt on columns 0-3, and one split of the hits fields of the rows
    whose index is above 0.
    """
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header, _, body = data.partition(b"\n")
    if header.decode(errors="replace").split(",") != INDEX_HEADER:
        raise ValueError(f"{path} is not an index shard (header {header!r})")
    if not body:
        return IndexColumns.from_records([])
    if not body.endswith(b"\n"):
        body += b"\n"
    buf = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))  # one per row
    starts = np.concatenate(([0], ends[:-1] + 1))

    def per_row(byte: str) -> np.ndarray:
        return np.add.reduceat(buf == ord(byte), starts, dtype=np.int64)

    def check(ok: np.ndarray, message) -> None:
        if not ok.all():
            row = int(np.argmin(ok))
            raise ValueError(f"{path}:{row + 2}: {message(row)}")  # the header is line 1

    fields = np.where(ends > starts, per_row(",") + 1, 0)
    check(fields == 5, lambda i: f"expected 5 fields, got {fields[i]}")
    try:
        table = np.loadtxt(body.splitlines(), dtype=np.int64, delimiter=",", usecols=range(4),
                           comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}, counting rows from 0 after the header: {exc}") from None
    d, p, delta, index = table.T.copy()
    hits = np.where(buf[ends - 1] == ord(","), 0, per_row(";") + 1)  # parts of the hits field
    check(index == hits, lambda i: f"index {index[i]} but {hits[i]} hits")
    two_m, valuation = _parse_hits(path, buf, ends, index)
    prev_d, prev_p = np.concatenate(([0], d[:-1])), np.concatenate(([0], p[:-1]))
    check((d > prev_d) | ((d == prev_d) & (p > prev_p)), lambda i: (
        f"(D, p) {int(d[i]), int(p[i])} does not follow {int(prev_d[i]), int(prev_p[i])}"))
    return IndexColumns(d, p, delta, index, two_m, valuation)


def _parse_hits(path: Path, buf: np.ndarray, ends: np.ndarray, index: np.ndarray):
    """(two_m, valuation) of every hit, from the hits fields of the rows
    whose index is above 0; index already equals each field's part count."""
    fourth_comma = np.flatnonzero(buf == ord(",")).reshape(-1, 4)[:, 3]
    hit_rows = index > 0
    # each hits field with the newline that ends it: "2:1;4:2\n2:1\n"
    edges = np.zeros(len(buf) + 1, dtype=np.int64)
    edges[fourth_comma[hit_rows] + 1] += 1
    edges[ends[hit_rows] + 1] -= 1
    inside = np.cumsum(edges[:-1]) > 0
    text = buf[inside]
    separators = np.flatnonzero((text == ord(":")) | (text == ord(";")) | (text == ord("\n")))
    # every hit is 2m:valuation, and hits are joined by ";" or end their field
    bad = (text[separators] == ord(":")) != (np.arange(len(separators)) % 2 == 0)
    if bad.any():
        line = np.searchsorted(ends, np.flatnonzero(inside)[separators[np.argmax(bad)]]) + 2
        raise ValueError(f"{path}:{line}: malformed hits")
    tokens = text.tobytes().replace(b":", b"\n").replace(b";", b"\n").split(b"\n")[:-1]
    try:
        values = np.array(list(map(int, tokens)), dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed hits ({exc})") from None
    return values[:, 0].copy(), values[:, 1].copy()


def write_pairs_csv(path: Path, cols: IndexColumns) -> None:
    """One p,two_m,D,valuation row per hit, in row and hit order, ending in CRLF."""
    rows = zip(cols.hit_rows(cols.prime).tolist(), cols.two_m.tolist(),
               cols.hit_rows(cols.discriminant).tolist(), cols.valuation.tolist())

    def body(fh):
        fh.write(",".join(PAIR_HEADER) + "\r\n")
        fh.write("".join(f"{p},{m},{d},{v}\r\n" for p, m, d, v in rows))

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
        _, lo, hi = scan_range(self.kind, self.params)
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
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key == "kind":
                kind = value
            elif key.startswith("param."):
                params[key[len("param.") :]] = value
            elif key.startswith("shard."):
                try:  # every parse error names the manifest line
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
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
                shards.append(entry)
    if not kind:
        raise ValueError(f"{path} has no scan kind")
    return ScanManifest(kind=kind, params=params, shards=shards)


def load_records(directory: Path, allow_partial: bool = False) -> IndexColumns:
    """Read every completed shard in range order; reject incomplete scans.

    The manifest's shard spans must partition the scan range
    (ScanManifest.validate_partition).  A completed shard must carry a
    digest, and its file must match it.  Each record's block key (p for a
    fixed-disc scan, D otherwise) must lie in its shard's [lo, hi).

    Raises IncompleteScanError for a directory with no manifest, and for an
    incomplete scan unless allow_partial is set; report commands map that
    onto the dedicated exit code.
    """
    if not (directory / MANIFEST_NAME).exists():
        raise IncompleteScanError(f"no manifest in {directory}")
    manifest = read_manifest(directory)
    manifest.validate_partition()
    if not manifest.complete and not allow_partial:
        raise IncompleteScanError(f"scan in {directory} is incomplete")
    block_key = "prime" if manifest.kind == "fixed-disc" else "discriminant"
    parts = []
    for entry in sorted(manifest.shards, key=lambda s: s.lo):
        if not entry.complete:
            continue
        path = directory / entry.name
        if not entry.digest:
            raise ValueError(f"shard {entry.name} is marked complete but has no digest")
        if file_digest(path) != entry.digest:
            raise ValueError(f"digest mismatch for shard {entry.name}")
        shard = read_index_shard(path)
        keys = getattr(shard, block_key)
        if len(keys) and (keys.min() < entry.lo or keys.max() >= entry.hi):
            raise ValueError(f"shard {entry.name} holds records outside [{entry.lo}, {entry.hi})")
        parts.append(shard)
    return IndexColumns.concatenate(parts)


def _shard_name(kind: str, lo: int, hi: int) -> str:
    return f"{kind}-{lo:08d}-{hi:08d}.csv"


def _write_block(task, out: Path, kind: str, lo: int, hi: int) -> tuple[str, int]:
    """Compute one block and write its shard, in the same process, so a pool
    worker sends the parent only (digest, record count), never the records."""
    records = task(lo, hi)
    path = out / _shard_name(kind, lo, hi)
    write_index_shard(path, records)
    return file_digest(path), len(records)


def _describe(manifest: ScanManifest) -> str:
    params = " ".join(f"{key}={value}" for key, value in sorted(manifest.params.items()))
    return f"a {manifest.kind} scan with {params}"


def write_scan(plan: ScanPlan, out: Path, workers: int = 1, resume: bool = False) -> int:
    """Run plan into the directory out and return the scan's record total.

    A block's shard is written and digested where the block is computed (a
    pool worker, or this process at one worker); this process writes the
    manifest before the blocks and after each one, in block order, so a
    shard is done only once the manifest says so.  A manifest already in
    out must name the same kind and params, and one that does not, or
    cannot be parsed, raises ValueError before anything is written; so a
    scan never leaves another scan's shards behind.  resume keeps each
    complete shard of that manifest whose file matches its digest; without
    it the scan is rewritten in place.  The bytes are those of a fresh run
    at any worker count.  A worker count below 1 raises ValueError before
    out is created.
    """
    entries = [ShardEntry(_shard_name(plan.kind, lo, hi), lo, hi) for lo, hi in plan.blocks]
    manifest = ScanManifest(plan.kind, plan.params, entries)
    total = 0  # records: those of the kept shards, then those written here
    previous = read_manifest(out) if (out / MANIFEST_NAME).exists() else None
    if previous and (previous.kind, previous.params) != (manifest.kind, manifest.params):
        raise ValueError(f"{out} holds {_describe(previous)}, not {_describe(manifest)}")
    if resume and previous:
        done = {(s.lo, s.hi): s for s in previous.shards if s.complete}
        for entry in manifest.shards:
            old = done.get((entry.lo, entry.hi))
            if old and (out / old.name).exists() and file_digest(out / old.name) == old.digest:
                entry.digest = old.digest
                entry.complete = True
                total += (out / old.name).read_bytes().count(b"\n") - 1
    pending = [entry for entry in manifest.shards if not entry.complete]
    writer = replace(plan, task=partial(_write_block, plan.task, out, plan.kind))
    results = writer.run(workers, [(entry.lo, entry.hi) for entry in pending])
    out.mkdir(parents=True, exist_ok=True)  # after run has checked the worker count
    write_manifest(out, manifest)
    for entry, (digest, count) in zip(pending, results):
        entry.digest = digest
        entry.complete = True
        write_manifest(out, manifest)
        total += count
    return total
